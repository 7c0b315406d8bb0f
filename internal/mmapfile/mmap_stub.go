//go:build !unix

package mmapfile

const supported = false

// Open fails on platforms without file mapping; callers fall back to the
// heap path (snapshot.OpenGraphMapped reads the file onto the heap).
func Open(path string) (*Mapping, error) { return nil, ErrUnsupported }

// Close is a no-op on platforms without file mapping.
func (m *Mapping) Close() error { return nil }

// NewRegion allocates the region on the Go heap: spilling is unavailable,
// but callers still get a working (merely not out-of-core) region.
func NewRegion(dir string, size int) (*Region, error) {
	if size <= 0 {
		return &Region{heap: true}, nil
	}
	return &Region{data: make([]byte, size), heap: true}, nil
}

// Close releases the heap fallback region.
func (r *Region) Close() error {
	r.data = nil
	return nil
}
