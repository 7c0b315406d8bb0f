package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"

	"rdfalign/internal/archive"
	"rdfalign/internal/rdf"
)

// WriteArchive serialises a as its entity and row columns, which
// reconstruct the Archive — and through it every version — exactly.
func WriteArchive(w io.Writer, a *archive.Archive) error {
	return writeArchiveRaw(w, a.Raw())
}

func writeArchiveRaw(w io.Writer, raw archive.Raw) error {
	sw, err := newSectionWriter(w)
	if err != nil {
		return err
	}
	meta := binary.AppendUvarint(nil, uint64(raw.Versions))
	meta = binary.AppendUvarint(meta, uint64(len(raw.Labels)))
	meta = binary.AppendUvarint(meta, uint64(len(raw.Rows)))
	if err := sw.section(secArchiveMeta, 0, meta); err != nil {
		return err
	}
	if err := sw.section(secArchiveLabels, 0, appendArchiveLabels(nil, raw)); err != nil {
		return err
	}
	if err := sw.section(secArchiveRows, 0, appendArchiveRows(nil, raw)); err != nil {
		return err
	}
	return sw.finish()
}

// WriteArchiveFile writes an archive snapshot to path.
func WriteArchiveFile(path string, a *archive.Archive) error {
	return writeFile(path, func(w io.Writer) error { return WriteArchive(w, a) })
}

// writeFile writes a snapshot to path so that no reader ever sees a
// partial file: the bytes go to a temporary file in the same directory,
// which is synced and renamed over path, and then the directory is synced
// so the rename itself is durable. On failure the temporary file is
// removed and a previous file at path is left as it was. The rename
// replaces the directory entry, not the old file's bytes, so a graph
// mapped from the old file keeps answering.
func writeFile(path string, write func(io.Writer) error) (err error) {
	tmp := fmt.Sprintf("%s.tmp-%d", path, rand.Uint64())
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir flushes a directory's entries to disk. Windows cannot open a
// directory for syncing; there the rename is as durable as the file
// system makes it.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// sectionWriter emits the header, CRC-framed sections, the footer table
// and the trailer, tracking offsets as it goes.
type sectionWriter struct {
	w     io.Writer
	off   int64
	table []tableEntry
}

type tableEntry struct {
	id     uint32
	index  uint32
	off    int64 // file offset of the section header
	length int64 // payload length
}

func newSectionWriter(w io.Writer) (*sectionWriter, error) {
	sw := &sectionWriter{w: w}
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, headerMagic...)
	hdr = binary.LittleEndian.AppendUint16(hdr, FormatVersion)
	return sw, sw.write(hdr)
}

func (sw *sectionWriter) write(b []byte) error {
	n, err := sw.w.Write(b)
	sw.off += int64(n)
	return err
}

func (sw *sectionWriter) section(id, index uint32, payload []byte) error {
	sw.table = append(sw.table, tableEntry{id: id, index: index, off: sw.off, length: int64(len(payload))})
	hdr := binary.LittleEndian.AppendUint32(make([]byte, 0, secHdrSize), id)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	if err := sw.write(hdr); err != nil {
		return err
	}
	if err := sw.write(payload); err != nil {
		return err
	}
	crc := binary.LittleEndian.AppendUint32(make([]byte, 0, crcSize), crc32.Checksum(payload, crcTable))
	return sw.write(crc)
}

func (sw *sectionWriter) finish() error {
	footerOff := sw.off
	payload := binary.AppendUvarint(nil, uint64(len(sw.table)))
	for _, e := range sw.table {
		payload = binary.AppendUvarint(payload, uint64(e.id))
		payload = binary.AppendUvarint(payload, uint64(e.index))
		payload = binary.AppendUvarint(payload, uint64(e.off))
		payload = binary.AppendUvarint(payload, uint64(e.length))
	}
	if err := sw.section(secFooter, 0, payload); err != nil {
		return err
	}
	trailer := binary.LittleEndian.AppendUint64(make([]byte, 0, trailerSize), uint64(footerOff))
	trailer = append(trailer, trailerMagic...)
	return sw.write(trailer)
}

// frontCoder shares prefixes between consecutive terms: each term is
// emitted as uvarint(common prefix with the previous term) +
// uvarint(suffix length) + suffix bytes — the rdfz varint/prefix-table
// idiom, applied to a running chain instead of an explicit table so
// decode needs no table lookups.
type frontCoder struct{ prev string }

func (fc *frontCoder) append(buf []byte, s string) []byte {
	lcp := 0
	max := len(s)
	if len(fc.prev) < max {
		max = len(fc.prev)
	}
	for lcp < max && s[lcp] == fc.prev[lcp] {
		lcp++
	}
	buf = binary.AppendUvarint(buf, uint64(lcp))
	buf = binary.AppendUvarint(buf, uint64(len(s)-lcp))
	buf = append(buf, s[lcp:]...)
	fc.prev = s
	return buf
}

// appendArchiveLabels encodes the per-entity label runs: per entity a run
// count, per run a kind byte (+ front-coded value for URIs/literals, one
// chain across the whole section) and the interval as uvarint(gap from
// the previous run's To) + uvarint(length-1).
func appendArchiveLabels(buf []byte, raw archive.Raw) []byte {
	var fc frontCoder
	for _, runs := range raw.Labels {
		buf = binary.AppendUvarint(buf, uint64(len(runs)))
		prevTo := -1
		for _, run := range runs {
			buf = append(buf, byte(run.Label.Kind))
			if run.Label.Kind != rdf.Blank {
				buf = fc.append(buf, run.Label.Value)
			}
			buf = binary.AppendUvarint(buf, uint64(run.Interval.From-prevTo-1))
			buf = binary.AppendUvarint(buf, uint64(run.Interval.To-run.Interval.From))
			prevTo = run.Interval.To
		}
	}
	return buf
}

// appendArchiveRows encodes the (S, P, O)-sorted triple rows as three
// delta columns interleaved per row, followed by each row's intervals.
func appendArchiveRows(buf []byte, raw archive.Raw) []byte {
	var prevS, prevP, prevO archive.EntityID
	for _, row := range raw.Rows {
		buf = binary.AppendUvarint(buf, uint64(row.S-prevS))
		buf = binary.AppendVarint(buf, int64(row.P-prevP))
		buf = binary.AppendVarint(buf, int64(row.O-prevO))
		prevS, prevP, prevO = row.S, row.P, row.O
		buf = binary.AppendUvarint(buf, uint64(len(row.Intervals)))
		prevTo := -1
		for _, iv := range row.Intervals {
			buf = binary.AppendUvarint(buf, uint64(iv.From-prevTo-1))
			buf = binary.AppendUvarint(buf, uint64(iv.To-iv.From))
			prevTo = iv.To
		}
	}
	return buf
}
