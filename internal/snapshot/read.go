package snapshot

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"unsafe"

	"rdfalign/internal/archive"
	"rdfalign/internal/mmapfile"
	"rdfalign/internal/rdf"
)

// ReadGraph reads a graph snapshot from r onto the heap. Every failure —
// truncation, bit corruption, format violations, adversarial length
// claims — returns an error wrapping ErrCorrupt with the byte offset;
// the reader never panics and never allocates more than a small multiple
// of the bytes actually present in the input.
func ReadGraph(r io.Reader) (*rdf.Graph, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, corrupt(int64(len(data)), "read failed: %v", err)
	}
	f, err := openBytes(data)
	if err != nil {
		return nil, err
	}
	return readGraph(f, nil)
}

// ReadGraphFile reads a graph snapshot from path onto the heap.
func ReadGraphFile(path string) (*rdf.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	h, err := Open(f, st.Size())
	if err != nil {
		return nil, err
	}
	return h.Graph()
}

// Handle is a snapshot file whose sections have all been read once and
// CRC-checked. It keeps the verified bytes of the sections Graph or
// Archive decode, so neither reads nor checksums the file again: a GRPM
// graph's columns are cast in place over those bytes. Long-lived services
// (rdfalign.OpenSnapshot, cmd/rdfalignd uploads) inspect and load graph
// and archive snapshots alike through one Handle.
type Handle struct {
	f    *file
	info *Info
}

// Open reads the snapshot of size bytes in r through its footer table,
// verifying every section's CRC and decoding the summary Info reports.
// Every failure returns an error wrapping ErrCorrupt with the byte offset.
func Open(r io.ReaderAt, size int64) (*Handle, error) {
	f, err := (&file{r: r, size: size, verified: make(map[sectionKey][]byte)}).open()
	if err != nil {
		return nil, err
	}
	info, err := f.inspect()
	if err != nil {
		return nil, err
	}
	keep := []uint32{secGraph, secGraphMapped}
	if info.Kind == "archive" {
		keep = []uint32{secArchiveMeta, secArchiveLabels, secArchiveRows}
	}
	for _, e := range append(f.table, f.footer) {
		if e.index != 0 || !slices.Contains(keep, e.id) {
			delete(f.verified, sectionKey{e.off, e.id})
		}
	}
	return &Handle{f: f, info: info}, nil
}

// Info returns the summary read at open time.
func (h *Handle) Info() *Info { return h.info }

// Graph decodes the graph of a graph snapshot onto the heap.
func (h *Handle) Graph() (*rdf.Graph, error) { return readGraph(h.f, nil) }

// Archive reconstructs the Archive from the entity/row sections of an
// archive snapshot. Per-version GRPH sections, which archive files written
// by earlier builds carry, are not decoded.
func (h *Handle) Archive() (*archive.Archive, error) { return readArchive(h.f) }

// readGraph serves the graph of f. A GRPM section's columns are cast in
// place, so the graph aliases f's bytes and its Close releases m, the
// mapping they live in (nil for heap bytes). A legacy GRPH section is
// decoded into fresh heap columns that alias nothing. Archive files are
// rejected: their graphs are the archive's versions.
func readGraph(f *file, m *mmapfile.Mapping) (*rdf.Graph, error) {
	if f.has(secArchiveMeta, 0) {
		return nil, corrupt(f.size, "file holds an archive, not a graph")
	}
	id := secGraphMapped
	if !f.has(id, 0) {
		id = secGraph
	}
	c, err := f.section(id, 0)
	if err != nil {
		return nil, err
	}
	var cols rdf.Columns
	if id == secGraphMapped {
		cols, err = mappedColumnsOver(m, c.data, c.base)
	} else {
		cols, err = decodeGraphBody(c)
	}
	if err != nil {
		return nil, err
	}
	g, err := rdf.FromColumns(cols)
	if err != nil {
		return nil, corrupt(c.base, "%v", err)
	}
	return g, nil
}

// readAll reads r to its end into a heap buffer that starts on an 8-byte
// boundary, so the GRPM columns cast in place at their file offsets. A
// reader that reports its unread length (bytes.Reader, bytes.Buffer,
// strings.Reader) is read into one buffer of that size.
func readAll(r io.Reader) ([]byte, error) {
	n := 512
	if l, ok := r.(interface{ Len() int }); ok && l.Len() >= n {
		n = l.Len() + 1 // one spare byte to read io.EOF into
	}
	buf := alignedBuf(n, 0)[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(alignedBuf(2*cap(buf), 0)[:0], buf...)
		}
		k, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// alignedBuf allocates n heap bytes whose address is congruent to the file
// offset off mod 8: a column the writer padded to its element size at
// some file offset lands on an address aligned the same way.
func alignedBuf(n int, off int64) []byte {
	words := make([]uint64, n/8+2)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*len(words))
	k := int(off % 8)
	return b[k : k+n]
}

func readArchive(f *file) (*archive.Archive, error) {
	meta, err := f.section(secArchiveMeta, 0)
	if err != nil {
		return nil, err
	}
	versions, entities, rows, err := decodeArchiveMeta(meta)
	if err != nil {
		return nil, err
	}
	lc, err := f.section(secArchiveLabels, 0)
	if err != nil {
		return nil, err
	}
	labels, err := decodeArchiveLabels(lc, versions, entities)
	if err != nil {
		return nil, err
	}
	rc, err := f.section(secArchiveRows, 0)
	if err != nil {
		return nil, err
	}
	rawRows, err := decodeArchiveRows(rc, versions, rows)
	if err != nil {
		return nil, err
	}
	a, err := archive.FromRaw(archive.Raw{Versions: versions, Labels: labels, Rows: rawRows})
	if err != nil {
		return nil, corrupt(rc.base, "%v", err)
	}
	return a, nil
}

// ---------------------------------------------------------------------
// Container reading: the footer table, over an io.ReaderAt or bytes
// already in memory.

type file struct {
	r      io.ReaderAt // nil when mem holds the whole file
	mem    []byte
	size   int64
	table  []tableEntry
	footer tableEntry // the FOOT section, which its own table does not list
	// verified, when non-nil, keeps CRC-checked section payloads, so a
	// section is read and checksummed once.
	verified map[sectionKey][]byte
}

// sectionKey names a section by its offset and the id its header was
// checked to carry.
type sectionKey struct {
	off int64
	id  uint32
}

// readAt returns the n bytes at off: a sub-slice of an in-memory file,
// otherwise a heap copy placed by alignedBuf. Either way the address is
// congruent to off mod 8, given that mem starts on an 8-byte boundary (a
// mapping starts on a page, readAll's buffer on a word).
func (f *file) readAt(off int64, n int) ([]byte, error) {
	if n < 0 || off < 0 || off+int64(n) > f.size {
		return nil, corrupt(off, "read of %d bytes beyond file size %d", n, f.size)
	}
	if f.r == nil {
		return f.mem[off : off+int64(n) : off+int64(n)], nil
	}
	buf := alignedBuf(n, off)
	if _, err := f.r.ReadAt(buf, off); err != nil {
		return nil, corrupt(off, "read failed: %v", err)
	}
	return buf, nil
}

func openBytes(data []byte) (*file, error) {
	return (&file{mem: data, size: int64(len(data))}).open()
}

// open checks the header and trailer and reads the footer table.
func (f *file) open() (*file, error) {
	size := f.size
	if size < int64(headerSize+trailerSize+secHdrSize+crcSize) {
		return nil, corrupt(0, "file of %d bytes is smaller than any snapshot", size)
	}
	hdr, err := f.readAt(0, headerSize)
	if err != nil {
		return nil, err
	}
	if string(hdr[:len(headerMagic)]) != headerMagic {
		return nil, corrupt(0, "bad magic %q", hdr[:len(headerMagic)])
	}
	if v := binary.LittleEndian.Uint16(hdr[len(headerMagic):]); v != FormatVersion {
		return nil, corrupt(int64(len(headerMagic)), "format version %d not supported (reader speaks %d)", v, FormatVersion)
	}
	tr, err := f.readAt(size-int64(trailerSize), trailerSize)
	if err != nil {
		return nil, err
	}
	if string(tr[8:]) != trailerMagic {
		return nil, corrupt(size-int64(len(trailerMagic)), "bad trailer magic %q", tr[8:])
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr))
	if footerOff < int64(headerSize) || footerOff > size-int64(trailerSize+secHdrSize+crcSize) {
		return nil, corrupt(size-int64(trailerSize), "footer offset %d outside file", footerOff)
	}
	fc, err := f.sectionAt(footerOff, secFooter)
	if err != nil {
		return nil, err
	}
	f.footer = tableEntry{id: secFooter, off: footerOff, length: int64(len(fc.data))}
	if end := footerOff + int64(secHdrSize+crcSize) + f.footer.length; end != size-int64(trailerSize) {
		return nil, corrupt(end, "%d stray bytes between footer and trailer", size-int64(trailerSize)-end)
	}
	count, err := fc.uvarint()
	if err != nil {
		return nil, err
	}
	if count > uint64(fc.remaining()) {
		return nil, corrupt(fc.off(), "footer claims %d sections in %d bytes", count, fc.remaining())
	}
	f.table = make([]tableEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		id, err1 := fc.uvarint()
		index, err2 := fc.uvarint()
		off, err3 := fc.uvarint()
		length, err4 := fc.uvarint()
		for _, e := range []error{err1, err2, err3, err4} {
			if e != nil {
				return nil, e
			}
		}
		if id > uint64(^uint32(0)) || index > uint64(^uint32(0)) ||
			off > uint64(f.size) || length > uint64(f.size) {
			return nil, corrupt(fc.off(), "footer entry %d out of range", i)
		}
		f.table = append(f.table, tableEntry{
			id: uint32(id), index: uint32(index), off: int64(off), length: int64(length),
		})
	}
	if err := fc.expectEnd(); err != nil {
		return nil, err
	}
	return f, nil
}

// sectionAt reads and CRC-checks the section whose header starts at off.
// A payload verified earlier under the same id is served from f.verified.
func (f *file) sectionAt(off int64, wantID uint32) (*cursor, error) {
	if data, ok := f.verified[sectionKey{off, wantID}]; ok {
		return &cursor{data: data, base: off + int64(secHdrSize)}, nil
	}
	hdr, err := f.readAt(off, secHdrSize)
	if err != nil {
		return nil, err
	}
	id := binary.LittleEndian.Uint32(hdr)
	if id != wantID {
		return nil, corrupt(off, "expected section %s, found %s", sectionName(wantID), sectionName(id))
	}
	length := binary.LittleEndian.Uint64(hdr[4:])
	if length > uint64(maxSectionSize) || int64(length) > f.size-off-int64(secHdrSize+crcSize) {
		return nil, corrupt(off, "section %s claims %d bytes, file has %d left", sectionName(id), length, f.size-off-int64(secHdrSize+crcSize))
	}
	payload, err := f.readAt(off+int64(secHdrSize), int(length))
	if err != nil {
		return nil, err
	}
	crcB, err := f.readAt(off+int64(secHdrSize)+int64(length), crcSize)
	if err != nil {
		return nil, err
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(crcB); got != want {
		return nil, corrupt(off, "section %s CRC mismatch: computed %08x, stored %08x", sectionName(id), got, want)
	}
	if f.verified != nil {
		f.verified[sectionKey{off, id}] = payload
	}
	return &cursor{data: payload, base: off + int64(secHdrSize)}, nil
}

// has reports whether the footer table lists section (id, index).
func (f *file) has(id, index uint32) bool {
	for _, e := range f.table {
		if e.id == id && e.index == index {
			return true
		}
	}
	return false
}

// section locates (id, index) through the footer table.
func (f *file) section(id, index uint32) (*cursor, error) {
	for _, e := range f.table {
		if e.id == id && e.index == index {
			return f.sectionAt(e.off, id)
		}
	}
	return nil, corrupt(f.size, "no section %s[%d] in footer table", sectionName(id), index)
}

// ---------------------------------------------------------------------
// Cursor: bounds-checked decoding within one section payload.

type cursor struct {
	data []byte
	pos  int
	base int64 // file offset of data[0], for error reporting
}

func (c *cursor) off() int64     { return c.base + int64(c.pos) }
func (c *cursor) remaining() int { return len(c.data) - c.pos }

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.pos:])
	if n <= 0 {
		return 0, corrupt(c.off(), "bad uvarint")
	}
	c.pos += n
	return v, nil
}

// count reads a uvarint that counts elements each occupying at least one
// payload byte, so any claim beyond the remaining payload is rejected
// before allocation.
func (c *cursor) count(what string) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(c.remaining()) || v > uint64(maxInt) {
		return 0, corrupt(c.off(), "%s count %d exceeds %d remaining payload bytes", what, v, c.remaining())
	}
	return int(v), nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.data[c.pos:])
	if n <= 0 {
		return 0, corrupt(c.off(), "bad varint")
	}
	c.pos += n
	return v, nil
}

func (c *cursor) byte() (byte, error) {
	if c.remaining() < 1 {
		return 0, corrupt(c.off(), "unexpected end of section")
	}
	b := c.data[c.pos]
	c.pos++
	return b, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if n < 0 || n > c.remaining() {
		return nil, corrupt(c.off(), "wanted %d bytes, %d remaining", n, c.remaining())
	}
	b := c.data[c.pos : c.pos+n]
	c.pos += n
	return b, nil
}

func (c *cursor) expectEnd() error {
	if c.remaining() != 0 {
		return corrupt(c.off(), "%d trailing bytes after section content", c.remaining())
	}
	return nil
}

// readString reads a plain uvarint-length string.
func (c *cursor) readString() (string, error) {
	n, err := c.count("string length")
	if err != nil {
		return "", err
	}
	b, err := c.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
