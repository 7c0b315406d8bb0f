package rdf

// CollideTermHash swaps in collidingTermHash, the four-bucket term hash of
// TestForcedTermHashCollisions, until the returned restore is called. It
// serves the external tests of package rdf_test, which exercise packages
// built on rdf.
func CollideTermHash() (restore func()) {
	saved := termHash
	termHash = collidingTermHash
	return func() { termHash = saved }
}

// PatchDenseFactor, WithParseBlockSize and WithWriteChunkSize expose the
// edit-path threshold, the parse block size and the parallel write chunk
// size to the external tests.
const PatchDenseFactor = patchDenseFactor

var (
	WithParseBlockSize = withParseBlockSize
	WithWriteChunkSize = withWriteChunkSize
)

// HasOverlay reports whether g is an edited graph that reads through an
// overlay, rather than a plain CSR.
func HasOverlay(g *Graph) bool { return g.ov != nil }

// SharesBase reports whether g's out-CSR base is base's own storage.
func SharesBase(g, base *Graph) bool {
	return len(g.outEdges) > 0 && &g.outEdges[0] == &base.outEdges[0]
}

// Rebuilt returns g's compaction: the same graph frozen into a fresh CSR.
func Rebuilt(g *Graph) *Graph { return rebuiltGraph(g, g.Name(), g.labelsAll(), nil, nil) }

// Folded returns the overlay graph g compacted into a plain CSR, as the
// edit path does once an overlay reaches the dense rule.
func Folded(g *Graph) *Graph { return folded(g) }

// KeepsDependents reports whether g holds a built dependents index of its
// own. Tests call it only where no other goroutine can be building one.
func KeepsDependents(g *Graph) bool { return g.depIndex != nil }
