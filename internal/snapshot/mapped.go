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
// footer), so OpenGraphMapped still validates the header, trailer and the
// section CRC before trusting any of it; readers that cannot map the file
// (other platforms, big-endian hosts, misaligned or GRPH-only files)
// decode the same bytes onto the heap through decodeMappedGraphBody.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"unsafe"

	"rdfalign/internal/mmapfile"
	"rdfalign/internal/rdf"
)

const mappedFixedHeader = 4 * 8 // nnodes, ntrip, depCount, nameLen

// errMappedFallback marks conditions under which the mapped open cannot
// serve the file zero-copy but a heap decode can: no GRPM section (a
// GRPH-only snapshot), a big-endian host, or a layout whose columns are
// not aligned in this file.
var errMappedFallback = errors.New("snapshot: file cannot be served from a mapping")

// hostLittleEndian reports whether native byte order matches the on-disk
// little-endian column encoding, the precondition for casting mapped
// bytes to integer slices.
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
// produces the same bytes. OpenGraphMapped serves it zero-copy; every
// other reader decodes the columns onto the heap.
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
// When zero-copy serving is impossible — the platform has no mmap, the
// host is big-endian, or the file is a varint GRPH snapshot written by an
// earlier build — the snapshot is decoded onto the heap instead, exactly
// as ReadGraphFile would, and Close is a no-op. Corrupt files fail with ErrCorrupt either
// way.
func OpenGraphMapped(path string) (*rdf.Graph, error) {
	m, err := mmapfile.Open(path)
	if err != nil {
		if errors.Is(err, mmapfile.ErrUnsupported) {
			return ReadGraphFile(path)
		}
		return nil, err
	}
	g, err := graphFromMapping(m)
	if err != nil {
		m.Close()
		if errors.Is(err, errMappedFallback) {
			return ReadGraphFile(path)
		}
		return nil, err
	}
	return g, nil
}

// graphFromMapping builds the zero-copy graph over an open mapping. On
// success the returned graph owns m (its Close unmaps). Errors wrapping
// errMappedFallback mean the file is fine but needs the heap decoder.
func graphFromMapping(m *mmapfile.Mapping) (*rdf.Graph, error) {
	data := m.Data()
	f, err := openReaderAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	var entry *tableEntry
	for i := range f.table {
		if f.table[i].id == secGraphMapped && f.table[i].index == 0 {
			entry = &f.table[i]
			break
		}
	}
	if entry == nil {
		return nil, errMappedFallback
	}
	if !hostLittleEndian() {
		return nil, errMappedFallback
	}
	off := entry.off
	if off < 0 || off+int64(secHdrSize) > int64(len(data)) {
		return nil, corrupt(off, "section %s header outside file", sectionName(secGraphMapped))
	}
	hdr := data[off : off+int64(secHdrSize)]
	if id := binary.LittleEndian.Uint32(hdr); id != secGraphMapped {
		return nil, corrupt(off, "expected section %s, found %s", sectionName(secGraphMapped), sectionName(id))
	}
	length := binary.LittleEndian.Uint64(hdr[4:])
	pbase := off + int64(secHdrSize)
	if length > uint64(maxSectionSize) || int64(length) > int64(len(data))-pbase-int64(crcSize) {
		return nil, corrupt(off, "section %s claims %d bytes", sectionName(secGraphMapped), length)
	}
	payload := data[pbase : pbase+int64(length)]
	stored := binary.LittleEndian.Uint32(data[pbase+int64(length):])
	if got := crc32.Checksum(payload, crcTable); got != stored {
		return nil, corrupt(off, "section %s CRC mismatch: computed %08x, stored %08x", sectionName(secGraphMapped), got, stored)
	}
	cols, err := mappedColumnsOver(m, payload, pbase)
	if err != nil {
		return nil, err
	}
	g, err := rdf.FromColumns(cols)
	if err != nil {
		return nil, corrupt(pbase, "%v", err)
	}
	return g, nil
}

// mappedColumns serves rdf.Columns straight out of a file mapping. All
// slice fields alias the mapping; the struct keeps the Mapping reachable
// (slices into non-heap memory do not), and Close unmaps it.
type mappedColumns struct {
	m        *mmapfile.Mapping
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
func (mc *mappedColumns) Close() error { return mc.m.Close() }

// mappedReader walks a GRPM payload, pairing each read with the absolute
// file offset needed to resolve the alignment pads. Both the zero-copy
// view and the heap decoder use it, so the two paths cannot disagree
// about the layout.
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
// the raw bytes of a column of n elemSize-byte elements. align can be
// smaller than elemSize (edges are 8-byte pairs of 4-byte-aligned int32s).
func (r *mappedReader) column(n, elemSize, align int, what string) ([]byte, error) {
	if pad := int((int64(align) - r.off()%int64(align)) % int64(align)); pad > 0 {
		if _, err := r.take(pad, what+" padding"); err != nil {
			return nil, err
		}
	}
	if n > (len(r.data)-r.pos)/elemSize {
		return nil, corrupt(r.off(), "%s column of %d × %d bytes exceeds section", what, n, elemSize)
	}
	return r.take(n*elemSize, what)
}

// mappedHeader is the decoded fixed part of a GRPM payload plus the raw
// column bytes, still unconverted.
type mappedHeader struct {
	name                               string
	nnodes, ntrip, depCount            int
	kinds, labelOff, blob              []byte
	outIndex, outEdges, depIdx, depNds []byte
}

// parseMappedBody splits a GRPM payload into its columns, validating
// every count against the payload size. No column content is inspected
// here; structural validation happens in rdf.FromColumns and the
// labelOff scan of the callers.
func parseMappedBody(data []byte, base int64) (*mappedHeader, error) {
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
	h := &mappedHeader{nnodes: int(nn), ntrip: int(nt), depCount: int(nd)}
	nameB, err := r.take(int(nl), "graph name")
	if err != nil {
		return nil, err
	}
	h.name = string(nameB)
	if h.kinds, err = r.column(h.nnodes, 1, 1, "kind"); err != nil {
		return nil, err
	}
	if h.labelOff, err = r.column(h.nnodes+1, 4, 4, "label offset"); err != nil {
		return nil, err
	}
	blobLen := int(binary.LittleEndian.Uint32(h.labelOff[4*h.nnodes:]))
	if h.blob, err = r.column(blobLen, 1, 1, "label blob"); err != nil {
		return nil, err
	}
	if h.outIndex, err = r.column(h.nnodes+1, 4, 4, "out index"); err != nil {
		return nil, err
	}
	if h.outEdges, err = r.column(h.ntrip, 8, 4, "out edge"); err != nil {
		return nil, err
	}
	if h.depIdx, err = r.column(h.nnodes+1, 4, 4, "dependency index"); err != nil {
		return nil, err
	}
	if h.depNds, err = r.column(h.depCount, 4, 4, "dependency node"); err != nil {
		return nil, err
	}
	if r.pos != len(data) {
		return nil, corrupt(r.off(), "%d trailing bytes after mapped graph columns", len(data)-r.pos)
	}
	return h, nil
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

// mappedColumnsOver casts the payload's columns into typed slices that
// alias the mapping. Misaligned columns (a writer that computed pads for
// a different base) fall back to the heap decoder.
func mappedColumnsOver(m *mmapfile.Mapping, payload []byte, base int64) (*mappedColumns, error) {
	h, err := parseMappedBody(payload, base)
	if err != nil {
		return nil, err
	}
	for _, col := range [][]byte{h.labelOff, h.outIndex, h.outEdges, h.depIdx, h.depNds} {
		if len(col) > 0 && uintptr(unsafe.Pointer(&col[0]))%4 != 0 {
			return nil, errMappedFallback
		}
	}
	mc := &mappedColumns{
		m:        m,
		name:     h.name,
		nnodes:   h.nnodes,
		kinds:    castSlice[rdf.Kind](h.kinds, h.nnodes),
		labelOff: castSlice[uint32](h.labelOff, h.nnodes+1),
		blob:     h.blob,
		outIndex: castSlice[int32](h.outIndex, h.nnodes+1),
		outEdges: castSlice[rdf.Edge](h.outEdges, h.ntrip),
		depIndex: castSlice[int32](h.depIdx, h.nnodes+1),
		depNodes: castSlice[rdf.NodeID](h.depNds, h.depCount),
	}
	if err := validateLabelOff(mc.labelOff, len(h.blob), base); err != nil {
		return nil, err
	}
	return mc, nil
}

// castSlice reinterprets a little-endian column as n elements of T. The
// caller has checked alignment and that len(b) == n × sizeof(T); the
// result aliases b, so whatever owns b's memory must outlive it.
func castSlice[T any](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// decodeMappedGraphBody decodes a GRPM section onto the heap: the
// portable fallback used by ReadGraph/ReadGraphAt and by OpenGraphMapped
// on hosts that cannot serve the mapping. One pass per column; label
// values are substrings of a single blob copy, as in decodeDict.
func decodeMappedGraphBody(c *cursor) (*rdf.Graph, error) {
	h, err := parseMappedBody(c.data[c.pos:], c.base+int64(c.pos))
	if err != nil {
		return nil, err
	}
	hc := &heapColumns{
		name:     h.name,
		kinds:    make([]rdf.Kind, h.nnodes),
		outIndex: decodeI32Column(h.outIndex, h.nnodes+1),
		depIndex: decodeI32Column(h.depIdx, h.nnodes+1),
	}
	for i := range hc.kinds {
		hc.kinds[i] = rdf.Kind(h.kinds[i])
	}
	labelOff := make([]uint32, h.nnodes+1)
	for i := range labelOff {
		labelOff[i] = binary.LittleEndian.Uint32(h.labelOff[4*i:])
	}
	if err := validateLabelOff(labelOff, len(h.blob), c.base); err != nil {
		return nil, err
	}
	blob := string(h.blob)
	hc.labels = make([]rdf.Label, h.nnodes)
	for i := range hc.labels {
		hc.labels[i] = rdf.Label{Kind: hc.kinds[i], Value: blob[labelOff[i]:labelOff[i+1]]}
	}
	hc.outEdges = make([]rdf.Edge, h.ntrip)
	for i := range hc.outEdges {
		hc.outEdges[i] = rdf.Edge{
			P: rdf.NodeID(binary.LittleEndian.Uint32(h.outEdges[8*i:])),
			O: rdf.NodeID(binary.LittleEndian.Uint32(h.outEdges[8*i+4:])),
		}
	}
	hc.depNodes = make([]rdf.NodeID, h.depCount)
	for i := range hc.depNodes {
		hc.depNodes[i] = rdf.NodeID(binary.LittleEndian.Uint32(h.depNds[4*i:]))
	}
	return hc.graph(c.base)
}

func decodeI32Column(b []byte, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// heapColumns is the slice-backed Columns a heap decode of a graph section
// (GRPM or legacy GRPH) produces; unlike sliceColumns it is not a view of
// an existing Graph.
type heapColumns struct {
	name     string
	labels   []rdf.Label
	kinds    []rdf.Kind
	outIndex []int32
	outEdges []rdf.Edge
	depIndex []int32
	depNodes []rdf.NodeID
}

func (hc *heapColumns) GraphName() string               { return hc.name }
func (hc *heapColumns) NumNodes() int                   { return len(hc.labels) }
func (hc *heapColumns) NumTriples() int                 { return len(hc.outEdges) }
func (hc *heapColumns) Label(n rdf.NodeID) rdf.Label    { return hc.labels[n] }
func (hc *heapColumns) Kinds() []rdf.Kind               { return hc.kinds }
func (hc *heapColumns) OutCSR() ([]int32, []rdf.Edge)   { return hc.outIndex, hc.outEdges }
func (hc *heapColumns) DepCSR() ([]int32, []rdf.NodeID) { return hc.depIndex, hc.depNodes }
func (hc *heapColumns) Close() error                    { return nil }

// graph builds the Graph over hc, reporting a structural fault as
// corruption of the section at base.
func (hc *heapColumns) graph(base int64) (*rdf.Graph, error) {
	g, err := rdf.FromColumns(hc)
	if err != nil {
		return nil, corrupt(base, "%v", err)
	}
	return g, nil
}
