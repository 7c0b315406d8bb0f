package rdfalign

import (
	"fmt"
	"os"

	"rdfalign/internal/snapshot"
)

// Binary snapshots (internal/snapshot): a versioned, columnar on-disk
// format for graphs and archives whose load time is dominated by file
// reads instead of parsing. A graph snapshot stores the graph's columns —
// term dictionary, triples and both adjacency CSRs — in their in-memory
// form, so OpenGraphSnapshotMapped serves them straight from a file
// mapping; an archive snapshot stores the archive's entity and row
// columns. See the internal/snapshot package comment for the layout and
// the compatibility policy.
type (
	// SnapshotInfo is the inspection summary of a snapshot file.
	SnapshotInfo = snapshot.Info
	// SnapshotCorruptError reports a corrupt or truncated snapshot with
	// the byte offset at which reading failed.
	SnapshotCorruptError = snapshot.CorruptError
)

// ErrSnapshotCorrupt is the sentinel wrapped by every snapshot read
// failure: errors.Is(err, ErrSnapshotCorrupt) distinguishes a damaged
// file from an I/O error opening it.
var ErrSnapshotCorrupt = snapshot.ErrCorrupt

// WriteGraphSnapshotMappedFile writes g to path as a graph snapshot. The
// columns are fixed-width, alignment-padded arrays that
// OpenGraphSnapshotMapped serves zero-copy; OpenSnapshot loads the same
// file onto the heap. Deterministic: the same graph produces the same
// bytes. The file is written under a temporary name and renamed over
// path, so a failed write leaves a previous file at path intact.
func WriteGraphSnapshotMappedFile(path string, g *Graph) error {
	return snapshot.WriteGraphMappedFile(path, g)
}

// OpenGraphSnapshotMapped maps the snapshot at path and serves the graph's
// columns directly from the mapping: after header and checksum
// validation, opening costs O(1) heap regardless of graph size, and the
// kernel pages triples in on demand (and out under memory pressure).
// Reads the file onto the heap instead when the platform lacks mmap or the
// host is big-endian, and decodes a varint snapshot written by an earlier
// build onto the heap, so it is safe to use unconditionally. Close the
// returned graph to unmap.
func OpenGraphSnapshotMapped(path string) (*Graph, error) {
	return snapshot.OpenGraphMapped(path)
}

// WriteArchiveSnapshotFile writes an archive snapshot to path: the
// archive's entity and row columns, from which OpenSnapshot reconstructs
// the archive — and every version — exactly.
func WriteArchiveSnapshotFile(path string, a *Archive) error {
	return snapshot.WriteArchiveFile(path, a)
}

// SnapshotHandle is an open snapshot file of either kind. OpenSnapshot
// reads the file once, verifying every section CRC, and the accessors then
// decode the graph or the archive from the verified bytes without reading
// or checksumming the file again — the read side of
// WriteGraphSnapshotMappedFile and WriteArchiveSnapshotFile, and the
// loading path of both cmd/rdfalignd and rdfalign -load-snapshot. A handle
// holds its file open until Close and the verified bytes while it is
// reachable; the accessors are independent and safe to call in any order,
// but the handle itself is not safe for concurrent use.
type SnapshotHandle struct {
	f *os.File
	h *snapshot.Handle
}

// OpenSnapshot opens the snapshot file at path, auto-detecting whether it
// holds a graph or an archive.
func OpenSnapshot(path string) (*SnapshotHandle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	h, err := snapshot.Open(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &SnapshotHandle{f: f, h: h}, nil
}

// Info returns the inspection summary read at open time.
func (h *SnapshotHandle) Info() *SnapshotInfo { return h.h.Info() }

// IsArchive reports whether the snapshot holds an archive (otherwise it
// holds a single graph).
func (h *SnapshotHandle) IsArchive() bool { return h.Info().Kind == "archive" }

// Versions returns the number of versions: the archive's version count,
// or 1 for a graph snapshot.
func (h *SnapshotHandle) Versions() int {
	if h.IsArchive() {
		return h.Info().Versions
	}
	return 1
}

// Graph loads the graph of a graph snapshot. For archive snapshots use
// Archive or Version.
func (h *SnapshotHandle) Graph() (*Graph, error) {
	if h.IsArchive() {
		return nil, fmt.Errorf("rdfalign: %s is an archive snapshot (%d versions); use Archive or Version", h.f.Name(), h.Versions())
	}
	return h.h.Graph()
}

// Archive reconstructs the archive of an archive snapshot.
func (h *SnapshotHandle) Archive() (*Archive, error) {
	if !h.IsArchive() {
		return nil, fmt.Errorf("rdfalign: %s is a graph snapshot; use Graph", h.f.Name())
	}
	return h.h.Archive()
}

// Version loads the graph of one version (0-based): for an archive
// snapshot the version the archive's rows reconstruct (the whole archive
// is decoded), for a graph snapshot the graph itself (v must be 0).
func (h *SnapshotHandle) Version(v int) (*Graph, error) {
	if !h.IsArchive() {
		if v != 0 {
			return nil, fmt.Errorf("rdfalign: version %d out of range: %s is a graph snapshot", v, h.f.Name())
		}
		return h.h.Graph()
	}
	if v < 0 || v >= h.Versions() {
		return nil, fmt.Errorf("rdfalign: version %d out of range [0, %d)", v, h.Versions())
	}
	a, err := h.Archive()
	if err != nil {
		return nil, err
	}
	return a.Snapshot(v)
}

// Close releases the underlying file. Graphs and archives already loaded
// remain valid.
func (h *SnapshotHandle) Close() error { return h.f.Close() }
