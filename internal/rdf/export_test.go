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

// PatchDenseFactor and WithParseBlockSize expose the edit-path threshold
// and the parse block size to the external tests.
const PatchDenseFactor = patchDenseFactor

var WithParseBlockSize = withParseBlockSize
