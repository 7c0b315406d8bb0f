package core

// setStampsForTest starts every generation stamp of the workspace at g, so
// a test can drive the stamps across their wrap-around.
func (ws *Workspace) setStampsForTest(g int32) {
	ws.inX.gen, ws.mark.gen, ws.tracked.gen = g, g, g
	ws.rename.from.gen, ws.rename.to.gen = g, g
}
