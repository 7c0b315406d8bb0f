package snapshot

// The mmap-native graph section ("GRPM"), the one graph encoding written.
// It optimises for load rather than size: every column is stored in
// its in-memory representation — fixed-width little-endian integers at
// file offsets aligned to their element size — so a reader that maps the
// file serves the graph's columns directly out of the mapping. Loading a
// snapshot then allocates O(1) heap for the columns regardless of graph
// size: the bytes are faulted in by the page cache on first access and
// remain evictable, which is what lets out-of-core alignment hold graphs
// several times larger than the heap limit.
//
// Payload layout (all integers little-endian; offsets below are relative
// to the payload, but the alignment pads are computed against the
// *absolute file offset* of each column so that a page-aligned mapping
// yields element-aligned pointers):
//
//	u64 node count n · u64 triple count t · u64 dependency-run total d ·
//	u64 name length · name bytes ·
//	kinds        n bytes (rdf.Kind)
//	pad4 · labelOff (n+1) × u32   — label value byte ranges in the blob
//	label blob   labelOff[n] bytes (blank nodes have empty values)
//	pad4 · outIndex (n+1) × i32
//	pad4 · outEdges t × (i32 P, i32 O)
//	pad4 · depIndex (n+1) × i32
//	pad4 · depNodes d × i32
//
// The section rides in the standard container (CRC-framed, listed in the
// footer), so every reader validates the header, trailer and the section
// CRC before trusting any of it. Every reader also serves the columns the
// same way, by casting them in place (mappedColumnsOver): OpenGraphMapped
// over the mapping, the heap readers over a heap copy of the bytes placed
// so that each column keeps the alignment its file offset gives it. A
// big-endian host byte-swaps the integer columns of its heap copy first.

import (
	"encoding/binary"
	"errors"
	"io"
	"unsafe"

	"rdfalign/internal/mmapfile"
	"rdfalign/internal/rdf"
)

const mappedFixedHeader = 4 * 8 // nnodes, ntrip, depCount, nameLen

// hostLittleEndian reports whether native byte order matches the on-disk
// little-endian column encoding, the precondition for casting the bytes
// of a file to integer slices without swapping them first.
func hostLittleEndian() bool {
	return binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234
}

// padTo appends zero bytes until abs+len(buf) is a multiple of align.
func padTo(buf []byte, abs int64, align int) []byte {
	for (abs+int64(len(buf)))%int64(align) != 0 {
		buf = append(buf, 0)
	}
	return buf
}

// WriteGraphMapped serialises g as a graph snapshot: one GRPM section in
// the standard container. The output is deterministic: the same graph
// produces the same bytes. OpenGraphMapped serves it zero-copy from a
// mapping; the other readers serve it from one heap copy of its bytes.
func WriteGraphMapped(w io.Writer, g *rdf.Graph) error {
	sw, err := newSectionWriter(w)
	if err != nil {
		return err
	}
	base := sw.off + int64(secHdrSize)
	if err := sw.section(secGraphMapped, 0, appendMappedGraphBody(base, g.Columns())); err != nil {
		return err
	}
	return sw.finish()
}

// WriteGraphMappedFile writes an mmap-native graph snapshot to path.
func WriteGraphMappedFile(path string, g *rdf.Graph) error {
	return writeFile(path, func(w io.Writer) error { return WriteGraphMapped(w, g) })
}

// appendMappedGraphBody encodes the columns of c at absolute file offset
// base per the layout above.
func appendMappedGraphBody(base int64, c rdf.Columns) []byte {
	n := c.NumNodes()
	outIndex, outEdges := c.OutCSR()
	depIndex, depNodes := c.DepCSR()
	name := c.GraphName()

	blobLen := 0
	for i := 0; i < n; i++ {
		blobLen += len(c.Label(rdf.NodeID(i)).Value)
	}
	est := mappedFixedHeader + len(name) + n + 4*(n+1) + blobLen +
		4*(n+1) + 8*len(outEdges) + 4*(n+1) + 4*len(depNodes) + 32
	buf := make([]byte, 0, est)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(outEdges)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(depNodes)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(name)))
	buf = append(buf, name...)
	for _, k := range c.Kinds() {
		buf = append(buf, byte(k))
	}
	buf = padTo(buf, base, 4)
	off := uint32(0)
	for i := 0; i <= n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, off)
		if i < n {
			off += uint32(len(c.Label(rdf.NodeID(i)).Value))
		}
	}
	for i := 0; i < n; i++ {
		buf = append(buf, c.Label(rdf.NodeID(i)).Value...)
	}
	buf = padTo(buf, base, 4)
	for _, v := range outIndex {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = padTo(buf, base, 4)
	for _, e := range outEdges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.P))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.O))
	}
	buf = padTo(buf, base, 4)
	for _, v := range depIndex {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = padTo(buf, base, 4)
	for _, m := range depNodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
	}
	return buf
}

// OpenGraphMapped opens a graph snapshot with its columns served directly
// from a read-only mapping of the file: after validating the container
// (header, trailer, footer, section CRC), the returned graph's label,
// adjacency and dependency columns alias the mapped bytes, so the load
// allocates O(1) heap however large the graph is. Close the graph to
// release the mapping; the graph (and any string or slice obtained from
// it) must not be used afterwards.
//
// Where the platform has no mmap, or the host is big-endian (its columns
// must be byte-swapped, which a read-only mapping cannot hold), the file
// is read onto the heap exactly as ReadGraphFile would, and Close is a
// no-op. A varint GRPH snapshot written by an earlier build is decoded
// onto the heap and its mapping released before return. Corrupt files
// fail with ErrCorrupt either way.
func OpenGraphMapped(path string) (*rdf.Graph, error) {
	if !hostLittleEndian() {
		return ReadGraphFile(path)
	}
	m, err := mmapfile.Open(path)
	if errors.Is(err, mmapfile.ErrUnsupported) {
		return ReadGraphFile(path)
	}
	if err != nil {
		return nil, err
	}
	f, err := openBytes(m.Data())
	if err != nil {
		m.Close()
		return nil, err
	}
	g, err := readGraph(f, m)
	if err != nil || !f.has(secGraphMapped, 0) {
		m.Close() // only GRPM columns alias the mapping
	}
	return g, err
}

// mappedColumns serves rdf.Columns straight out of the bytes of a GRPM
// section: a file mapping or a heap copy. All slice fields alias those
// bytes. Over a mapping the struct keeps the Mapping reachable (slices
// into non-heap memory do not) and Close unmaps it; over a heap copy m is
// nil, the slices keep the copy alive and Close does nothing.
type mappedColumns struct {
	m        *mmapfile.Mapping // nil over a heap copy
	name     string
	nnodes   int
	kinds    []rdf.Kind
	labelOff []uint32
	blob     []byte
	outIndex []int32
	outEdges []rdf.Edge
	depIndex []int32
	depNodes []rdf.NodeID
}

func (mc *mappedColumns) GraphName() string { return mc.name }
func (mc *mappedColumns) NumNodes() int     { return mc.nnodes }
func (mc *mappedColumns) NumTriples() int   { return len(mc.outEdges) }

func (mc *mappedColumns) Label(n rdf.NodeID) rdf.Label {
	lo, hi := mc.labelOff[n], mc.labelOff[n+1]
	l := rdf.Label{Kind: mc.kinds[n]}
	if hi > lo {
		l.Value = unsafe.String(&mc.blob[lo], int(hi-lo))
	}
	return l
}

func (mc *mappedColumns) Kinds() []rdf.Kind             { return mc.kinds }
func (mc *mappedColumns) OutCSR() ([]int32, []rdf.Edge) { return mc.outIndex, mc.outEdges }
func (mc *mappedColumns) DepCSR() ([]int32, []rdf.NodeID) {
	return mc.depIndex, mc.depNodes
}
func (mc *mappedColumns) Close() error {
	if mc.m == nil {
		return nil
	}
	return mc.m.Close()
}

// mappedReader walks a GRPM payload, pairing each read with the absolute
// file offset needed to resolve the alignment pads.
type mappedReader struct {
	data []byte
	pos  int
	base int64 // absolute file offset of data[0]
}

func (r *mappedReader) off() int64 { return r.base + int64(r.pos) }

func (r *mappedReader) u64(what string) (uint64, error) {
	if len(r.data)-r.pos < 8 {
		return 0, corrupt(r.off(), "truncated %s", what)
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *mappedReader) take(n int, what string) ([]byte, error) {
	if n < 0 || len(r.data)-r.pos < n {
		return nil, corrupt(r.off(), "truncated %s: wanted %d bytes, %d remaining", what, n, len(r.data)-r.pos)
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// column skips the pad bringing the absolute offset to align and returns
// the next n elements of T, cast in place. align can be smaller than the
// element size (edges are 8-byte pairs of 4-byte-aligned int32s). The
// caller places data at an address congruent to base mod 8, so the cast
// is aligned; on a big-endian host data is a heap copy, and the 4-byte
// words of integer columns are byte-swapped in place first. The result
// aliases data, so whatever owns data's memory must outlive it.
func column[T any](r *mappedReader, n, align int, what string) ([]T, error) {
	if pad := int((int64(align) - r.off()%int64(align)) % int64(align)); pad > 0 {
		if _, err := r.take(pad, what+" padding"); err != nil {
			return nil, err
		}
	}
	size := int(unsafe.Sizeof(*new(T)))
	if n > (len(r.data)-r.pos)/size {
		return nil, corrupt(r.off(), "%s column of %d × %d bytes exceeds section", what, n, size)
	}
	b, err := r.take(n*size, what)
	if err != nil || n == 0 {
		return nil, err
	}
	if size >= 4 && !hostLittleEndian() {
		swap32(b)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// mappedColumnsOver serves the columns of a GRPM payload in place,
// validating every count against the payload size and the label offsets
// that Label slices with; the CSRs are validated by rdf.FromColumns. m
// is the mapping the payload lives in, or nil for a heap copy.
func mappedColumnsOver(m *mmapfile.Mapping, data []byte, base int64) (*mappedColumns, error) {
	r := &mappedReader{data: data, base: base}
	nn, err1 := r.u64("node count")
	nt, err2 := r.u64("triple count")
	nd, err3 := r.u64("dependency total")
	nl, err4 := r.u64("name length")
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			return nil, err
		}
	}
	if nn > maxInt || nt > maxInt || nd > maxInt || nl > uint64(len(data)) {
		return nil, corrupt(r.off(), "mapped graph counts (%d nodes, %d triples, %d dependency entries) out of range", nn, nt, nd)
	}
	n := int(nn)
	nameB, err := r.take(int(nl), "graph name")
	if err != nil {
		return nil, err
	}
	mc := &mappedColumns{m: m, name: string(nameB), nnodes: n}
	if mc.kinds, err = column[rdf.Kind](r, n, 1, "kind"); err != nil {
		return nil, err
	}
	if mc.labelOff, err = column[uint32](r, n+1, 4, "label offset"); err != nil {
		return nil, err
	}
	if mc.blob, err = column[byte](r, int(mc.labelOff[n]), 1, "label blob"); err != nil {
		return nil, err
	}
	if mc.outIndex, err = column[int32](r, n+1, 4, "out index"); err != nil {
		return nil, err
	}
	if mc.outEdges, err = column[rdf.Edge](r, int(nt), 4, "out edge"); err != nil {
		return nil, err
	}
	if mc.depIndex, err = column[int32](r, n+1, 4, "dependency index"); err != nil {
		return nil, err
	}
	if mc.depNodes, err = column[rdf.NodeID](r, int(nd), 4, "dependency node"); err != nil {
		return nil, err
	}
	if r.pos != len(data) {
		return nil, corrupt(r.off(), "%d trailing bytes after mapped graph columns", len(data)-r.pos)
	}
	if err := validateLabelOff(mc.labelOff, len(mc.blob), base); err != nil {
		return nil, err
	}
	return mc, nil
}

// validateLabelOff checks the label byte ranges Label() will slice with:
// monotone and ending exactly at the blob length.
func validateLabelOff(off []uint32, blobLen int, base int64) error {
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return corrupt(base, "label offsets decrease at node %d", i-1)
		}
	}
	if off[0] != 0 || int(off[len(off)-1]) != blobLen {
		return corrupt(base, "label offsets span [%d,%d], want [0,%d]", off[0], off[len(off)-1], blobLen)
	}
	return nil
}

// swap32 reverses the byte order of every 4-byte word of b in place,
// turning little-endian u32/i32 columns into their big-endian reading.
func swap32(b []byte) {
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}
