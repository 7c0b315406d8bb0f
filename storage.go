package rdfalign

import "rdfalign/internal/core"

// Storage selects where an alignment session keeps its large working
// arrays — the combined graph's columns, the partition color arrays and
// the interner's entry table and signature pair lists. The backend never
// changes results: colorings are bit-identical across backends, worker
// counts and hash seeds (property-tested). It only moves the bytes.
type Storage = core.Storage

// InMemory returns the default storage: everything lives on the Go heap.
func InMemory() Storage { return core.InMemory() }

// OutOfCore returns a storage backend for graphs that crowd the heap: the
// session's arrays live in writable memory-mapped regions backed by
// unlinked temporary files in dir ("" = the system temp directory), and
// refinement rounds with large frontiers group their new signatures by
// external merge sort in the same directory instead of buffering them in
// memory. Dirty pages are written back to the filesystem under memory
// pressure rather than counting against GOMEMLIMIT (which tracks only the
// Go heap), so alignment degrades to sequential file I/O instead of
// dying when the working set outgrows the memory budget.
//
// A storage is an arena tied to the alignments built on it: call Close
// only after every such Alignment (and graph produced from it) is
// unreachable. The backing files are unlinked at creation, so even
// without Close the space is reclaimed at process exit. On platforms
// without mmap the regions silently degrade to heap slices; spilling
// still works.
func OutOfCore(dir string) Storage { return core.OutOfCore(dir) }

// WithStorage selects the storage backend for the working set of the
// session's Align calls (default InMemory); BuildArchive, AppendVersion and
// AppendAlignment align archive pairs on the heap, since an arena would
// grow with every archived pair.
// Pair it with OpenGraphSnapshotMapped inputs to keep whole-graph alignment
// out of the Go heap end to end:
//
//	al, _ := rdfalign.NewAligner(
//	    rdfalign.WithMethod(rdfalign.Deblank),
//	    rdfalign.WithStorage(rdfalign.OutOfCore(spillDir)),
//	)
func WithStorage(s Storage) Option {
	return func(c *alignerConfig) { c.storage = s }
}
