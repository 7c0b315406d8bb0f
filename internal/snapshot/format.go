// Package snapshot implements a versioned, columnar binary format for
// rdf.Graph and archive.Archive: load time is dominated by file reads
// instead of text parsing, because every in-memory index is serialised in
// its frozen form and reconstructed without sorting or re-interning.
//
// # File layout
//
//	header   "RDSNAP" + uint16 LE format version
//	section* uint32 LE id · uint64 LE payload length · payload ·
//	         uint32 LE CRC-32C(payload)
//	footer   a section (id "FOOT") whose payload is the section table:
//	         uvarint count, then per section uvarint id · index ·
//	         offset · payload length
//	trailer  uint64 LE footer offset + "RDSNAPFT"
//
// A graph file holds one "GRPM" section: the mmap-native column layout of
// mapped.go, whose fixed-width, alignment-padded arrays every reader
// serves in place — OpenGraphMapped from a file mapping, the others from
// one heap copy of the bytes, placed so the arrays stay aligned. An archive file holds "AMET" (counts), "ALBL" (entity label
// runs, front-coded) and "AROW" (triple rows + version intervals). The
// rows reconstruct every version exactly (archive.Archive.Snapshot), so no
// version is stored twice.
//
// Files written by earlier builds carry the varint-packed "GRPH" graph
// section instead: as the graph of a graph file, and once per version
// (index = version) in an archive file. No writer emits GRPH any more.
// Readers still decode it in graph files; archive readers skip the
// per-version copies. Inside a GRPH section the term dictionary is
// front-coded (per label a kind byte, then uvarint shared-prefix length
// with the previous term and uvarint suffix length + suffix bytes), the
// (S, P, O)-sorted triple list is three delta-packed columns (uvarint
// subject deltas, zigzag predicate/object deltas), and the out-adjacency
// and reverse-dependency CSRs are varint degree columns (+ ascending-delta
// node runs for the dependency CSR).
//
// All readers find sections through the footer table, and each section
// a reader uses is CRC-checked (Open checks every one); truncation,
// bit corruption and adversarial length claims fail loudly with an error
// wrapping ErrCorrupt that carries the byte offset of the failure.
//
// # Compatibility policy
//
// The format version in the header is bumped on any incompatible layout
// change; readers reject versions they do not know with ErrCorrupt
// ("format version N not supported") rather than guessing. Unknown
// section IDs are skipped (Open still verifies their CRC), so
// forward-compatible additions — new optional sections — do not require
// a bump.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// FormatVersion is the current on-disk format version.
const FormatVersion = 1

// Magic is the leading byte sequence of every snapshot file; callers that
// sniff request bodies or files use it to distinguish snapshots from text
// formats before committing to a full parse.
const Magic = headerMagic

const (
	headerMagic  = "RDSNAP"
	trailerMagic = "RDSNAPFT"
	headerSize   = len(headerMagic) + 2 // magic + uint16 version
	trailerSize  = 8 + len(trailerMagic)
	secHdrSize   = 4 + 8 // id + payload length
	crcSize      = 4
)

// Section IDs, chosen to read as 4-character tags in a hex dump.
const (
	secGraph         = uint32('G')<<24 | uint32('R')<<16 | uint32('P')<<8 | uint32('H')
	secGraphMapped   = uint32('G')<<24 | uint32('R')<<16 | uint32('P')<<8 | uint32('M')
	secArchiveMeta   = uint32('A')<<24 | uint32('M')<<16 | uint32('E')<<8 | uint32('T')
	secArchiveLabels = uint32('A')<<24 | uint32('L')<<16 | uint32('B')<<8 | uint32('L')
	secArchiveRows   = uint32('A')<<24 | uint32('R')<<16 | uint32('O')<<8 | uint32('W')
	secFooter        = uint32('F')<<24 | uint32('O')<<16 | uint32('O')<<8 | uint32('T')
)

func sectionName(id uint32) string {
	b := []byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
	for _, c := range b {
		if c < 'A' || c > 'Z' {
			return fmt.Sprintf("0x%08x", id)
		}
	}
	return string(b)
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms this runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is the sentinel wrapped by every read failure: truncation,
// CRC mismatch, format violations, and adversarial length claims all
// report errors.Is(err, ErrCorrupt) == true.
var ErrCorrupt = errors.New("snapshot: corrupt")

// CorruptError reports a corrupt or truncated snapshot, with the byte
// offset at which reading failed.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snapshot: corrupt at byte %d: %s", e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorrupt) hold.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

func corrupt(off int64, format string, args ...any) error {
	return &CorruptError{Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// maxSectionSize bounds a single section's claimed payload length. It
// exists to reject absurd length claims before any allocation; real
// sections (even 100M-triple graphs) stay far below it.
const maxSectionSize = int64(1) << 38 // 256 GiB

// maxInt is the portable int cap for count validation.
const maxInt = math.MaxInt32 - 1
