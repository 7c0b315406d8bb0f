package core

import (
	"sync"
	"unsafe"

	"rdfalign/internal/mmapfile"
	"rdfalign/internal/rdf"
)

// Storage supplies backing memory for the large pointer-free arrays of an
// alignment run: the combined graph's columns (via rdf.Allocator), the
// partition color arrays, and the interner's entry table and stored pair
// sets (as int32 words from AllocColors). The choice
// of backend never changes results — colorings are bit-identical across
// backends (property-tested) — only where the bytes live:
//
//   - InMemory (and a nil Storage) serves everything from the Go heap.
//   - OutOfCore serves everything from writable mmap regions backed by
//     unlinked temporary files. Dirty pages are written back to the
//     filesystem under memory pressure instead of counting against
//     GOMEMLIMIT (which tracks only the Go heap), so an alignment whose
//     node and edge arrays dwarf RAM degrades to sequential file I/O
//     instead of dying. It also unlocks the external-merge signature
//     grouping of the worklist engine (extsort.go), which spills each
//     round's unseen signatures to sorted runs instead of buffering them.
//
// A Storage is an arena: allocations are only reclaimed all at once by
// Close, which must not be called before every graph, partition and
// alignment built on the storage is unreachable. The backing files are
// unlinked at creation, so even without Close the space is reclaimed at
// process exit. Implementations are safe for concurrent allocation.
type Storage interface {
	rdf.Allocator

	// AllocColors returns a zeroed color array of length n.
	AllocColors(n int) []Color

	// SpillDir returns the directory for external-merge spill runs and
	// whether spilling is enabled. In-memory storage reports false, which
	// keeps the worklist engine on its heap grouping paths.
	SpillDir() (string, bool)

	// Close unmaps and releases every allocation made from the storage.
	Close() error
}

// InMemory returns the default heap storage: every allocation is a plain
// make, SpillDir reports false, Close is a no-op.
func InMemory() Storage { return heapStorage{} }

// heapStorage is the Go-heap Storage. It is stateless.
type heapStorage struct{}

func (heapStorage) AllocEdges(n int) []rdf.Edge   { return make([]rdf.Edge, n) }
func (heapStorage) AllocIndex(n int) []int32      { return make([]int32, n) }
func (heapStorage) AllocNodes(n int) []rdf.NodeID { return make([]rdf.NodeID, n) }
func (heapStorage) AllocColors(n int) []Color     { return make([]Color, n) }
func (heapStorage) SpillDir() (string, bool)      { return "", false }
func (heapStorage) Close() error                  { return nil }

// OutOfCore returns a Storage that allocates from writable mmap regions
// backed by unlinked temporary files in dir ("" = os.TempDir()), and
// enables spill-to-disk signature grouping in the same directory. On
// platforms without mmap the regions silently degrade to heap slices;
// spilling still works (it uses ordinary file I/O).
func OutOfCore(dir string) Storage { return &diskStorage{dir: dir} }

// diskChunkBytes is the region granularity of the disk storage's bump
// allocator. Large enough that region setup cost is amortised, small
// enough that the tail waste of the last chunk does not matter.
const diskChunkBytes = 64 << 20

// diskStorage bump-allocates from a chain of mmap regions. Regions are
// held (never closed) until Close so that every slice handed out stays
// valid: slices into a region do not keep it alive on their own — the
// collector does not trace non-heap memory — so the storage must.
type diskStorage struct {
	dir string

	mu      sync.Mutex
	regions []*mmapfile.Region
	buf     []byte // unused tail of the newest region
}

// alloc returns n zeroed bytes, 8-aligned within the current region (the
// region base is page-aligned, and every allocation is rounded up to a
// multiple of 8, so any element type up to 8-byte alignment is served
// correctly). Falls back to the heap when regions are unavailable.
func (s *diskStorage) alloc(n int) []byte {
	if n <= 0 {
		return nil
	}
	rounded := (n + 7) &^ 7
	s.mu.Lock()
	defer s.mu.Unlock()
	if rounded > len(s.buf) {
		size := diskChunkBytes
		if rounded > size {
			size = rounded
		}
		r, err := mmapfile.NewRegion(s.dir, size)
		if err != nil {
			// No mmap on this platform (or the spill dir is unusable for
			// mapping): serve from the heap. Fresh heap memory is zeroed,
			// matching region semantics (Truncate extends with zeros).
			return make([]byte, n)
		}
		s.regions = append(s.regions, r)
		s.buf = r.Data()
	}
	b := s.buf[:n:rounded]
	s.buf = s.buf[rounded:]
	return b
}

// castAlloc allocates n elements of a pointer-free type T from s.
func castAlloc[T any](s *diskStorage, n int) []T {
	var zero T
	b := s.alloc(n * int(unsafe.Sizeof(zero)))
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

func (s *diskStorage) AllocEdges(n int) []rdf.Edge   { return castAlloc[rdf.Edge](s, n) }
func (s *diskStorage) AllocIndex(n int) []int32      { return castAlloc[int32](s, n) }
func (s *diskStorage) AllocNodes(n int) []rdf.NodeID { return castAlloc[rdf.NodeID](s, n) }
func (s *diskStorage) AllocColors(n int) []Color     { return castAlloc[Color](s, n) }

func (s *diskStorage) SpillDir() (string, bool) { return s.dir, true }

// Close unmaps every region. Everything allocated from the storage must
// already be unreachable.
func (s *diskStorage) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, r := range s.regions {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.regions = nil
	s.buf = nil
	return first
}
