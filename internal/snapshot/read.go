package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"

	"rdfalign/internal/archive"
	"rdfalign/internal/rdf"
)

// ReadGraph reads a graph snapshot sequentially from r. Every failure —
// truncation, bit corruption, format violations, adversarial length
// claims — returns an error wrapping ErrCorrupt with the byte offset;
// the reader never panics and never allocates more than a small multiple
// of the bytes actually present in the input.
func ReadGraph(r io.Reader) (*rdf.Graph, error) {
	sr := &streamReader{r: r}
	if err := sr.header(); err != nil {
		return nil, err
	}
	var g *rdf.Graph
	for {
		id, payload, base, err := sr.nextSection()
		if err != nil {
			return nil, err
		}
		if id == secGraph && g == nil {
			g, err = decodeGraphBody(&cursor{data: payload, base: base})
			if err != nil {
				return nil, err
			}
		}
		if id == secGraphMapped && g == nil {
			g, err = decodeMappedGraphBody(&cursor{data: payload, base: base})
			if err != nil {
				return nil, err
			}
		}
		if id == secFooter {
			if err := sr.trailer(); err != nil {
				return nil, err
			}
			break
		}
	}
	if g == nil {
		return nil, corrupt(sr.off, "no graph section in file")
	}
	return g, nil
}

// ReadGraphAt loads a graph snapshot through the footer table of r — the
// random-access counterpart of ReadGraph. Long-lived services (OpenSnapshot,
// cmd/rdfalignd) serve graph and archive snapshots alike from one
// io.ReaderAt-backed handle; only the header, footer and the graph section
// are read.
func ReadGraphAt(r io.ReaderAt, size int64) (*rdf.Graph, error) {
	f, err := openReaderAt(r, size)
	if err != nil {
		return nil, err
	}
	if f.has(secGraphMapped, 0) && !f.has(secGraph, 0) {
		c, err := f.section(secGraphMapped, 0)
		if err != nil {
			return nil, err
		}
		return decodeMappedGraphBody(c)
	}
	c, err := f.section(secGraph, 0)
	if err != nil {
		return nil, err
	}
	return decodeGraphBody(c)
}

// ReadGraphFile reads a graph snapshot from path.
func ReadGraphFile(path string) (*rdf.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadGraph(f)
}

// ReadArchive reconstructs the Archive from the entity/row sections of an
// archive snapshot. Per-version GRPH sections, which archive files written
// by earlier builds carry, are not read.
func ReadArchive(r io.ReaderAt, size int64) (*archive.Archive, error) {
	f, err := openReaderAt(r, size)
	if err != nil {
		return nil, err
	}
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
// Sequential container reading.

type streamReader struct {
	r   io.Reader
	off int64
}

func (sr *streamReader) readFull(n int) ([]byte, error) {
	buf := make([]byte, n)
	m, err := io.ReadFull(sr.r, buf)
	sr.off += int64(m)
	if err != nil {
		return nil, corrupt(sr.off, "truncated: wanted %d bytes, got %d", n, m)
	}
	return buf, nil
}

func (sr *streamReader) header() error {
	b, err := sr.readFull(headerSize)
	if err != nil {
		return err
	}
	if string(b[:len(headerMagic)]) != headerMagic {
		return corrupt(0, "bad magic %q", b[:len(headerMagic)])
	}
	if v := binary.LittleEndian.Uint16(b[len(headerMagic):]); v != FormatVersion {
		return corrupt(int64(len(headerMagic)), "format version %d not supported (reader speaks %d)", v, FormatVersion)
	}
	return nil
}

// nextSection reads one CRC-framed section. The payload buffer grows as
// bytes actually arrive, so a length claim far beyond the real input
// fails on truncation without a matching allocation.
func (sr *streamReader) nextSection() (id uint32, payload []byte, base int64, err error) {
	hdr, err := sr.readFull(secHdrSize)
	if err != nil {
		return 0, nil, 0, err
	}
	id = binary.LittleEndian.Uint32(hdr)
	length := binary.LittleEndian.Uint64(hdr[4:])
	if length > uint64(maxSectionSize) {
		return 0, nil, 0, corrupt(sr.off-8, "section %s claims %d bytes", sectionName(id), length)
	}
	base = sr.off
	var buf bytes.Buffer
	m, err := io.CopyN(&buf, sr.r, int64(length))
	sr.off += m
	if err != nil {
		return 0, nil, 0, corrupt(sr.off, "section %s truncated: wanted %d payload bytes, got %d", sectionName(id), length, m)
	}
	crcB, err := sr.readFull(crcSize)
	if err != nil {
		return 0, nil, 0, err
	}
	payload = buf.Bytes()
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(crcB); got != want {
		return 0, nil, 0, corrupt(base, "section %s CRC mismatch: computed %08x, stored %08x", sectionName(id), got, want)
	}
	return id, payload, base, nil
}

func (sr *streamReader) trailer() error {
	b, err := sr.readFull(trailerSize)
	if err != nil {
		return err
	}
	if string(b[8:]) != trailerMagic {
		return corrupt(sr.off-int64(len(trailerMagic)), "bad trailer magic %q", b[8:])
	}
	return nil
}

// ---------------------------------------------------------------------
// Random-access container reading (io.ReaderAt + footer table).

type file struct {
	r      io.ReaderAt
	size   int64
	table  []tableEntry
	footer tableEntry // the FOOT section, which its own table does not list
}

func (f *file) readAt(off int64, n int) ([]byte, error) {
	if n < 0 || off < 0 || off+int64(n) > f.size {
		return nil, corrupt(off, "read of %d bytes beyond file size %d", n, f.size)
	}
	buf := make([]byte, n)
	if _, err := f.r.ReadAt(buf, off); err != nil {
		return nil, corrupt(off, "read failed: %v", err)
	}
	return buf, nil
}

func openReaderAt(r io.ReaderAt, size int64) (*file, error) {
	f := &file{r: r, size: size}
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
func (f *file) sectionAt(off int64, wantID uint32) (*cursor, error) {
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
