package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rdfalign/internal/rdf"
)

// fuzzSeedDocs are small N-Triples documents whose snapshots seed the
// fuzzer with structurally valid inputs to mutate.
var fuzzSeedDocs = []string{
	"",
	"<s> <p> <o> .\n",
	"<http://example.org/s> <http://example.org/p> \"v\" .\n_:b <http://example.org/p> <http://example.org/s> .\n",
	"_:x <p> _:y .\n_:y <q> _:x .\n",
	"<s> <p> \"raw\xffbyte\" .\n",
}

// seedSnapshots returns the GRPM snapshots of fuzzSeedDocs followed by the
// GRPH graph fixture written by an earlier build (no writer emits GRPH
// any more, so the fixture is the only well-formed GRPH input).
func seedSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for i, doc := range fuzzSeedDocs {
		g, err := rdf.ParseNTriplesString(doc, "seed")
		if err != nil {
			tb.Fatalf("seed doc %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := WriteGraphMapped(&buf, g); err != nil {
			tb.Fatalf("seed doc %d: %v", i, err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	legacy, err := os.ReadFile(legacyGraphFixture)
	if err != nil {
		tb.Fatal(err)
	}
	return append(seeds, legacy)
}

// addSeeds adds every seed snapshot plus hand-broken variants of it:
// truncation, CRC damage, absurd section length, corrupted trailer.
func addSeeds(f *testing.F) {
	for _, blob := range seedSnapshots(f) {
		f.Add(blob)
		if len(blob) > trailerSize {
			f.Add(blob[:len(blob)/2])
			f.Add(blob[:len(blob)-trailerSize])
			flip := bytes.Clone(blob)
			flip[len(flip)/3] ^= 0x55
			f.Add(flip)
			huge := bytes.Clone(blob)
			for i := 0; i < 8 && headerSize+4+i < len(huge); i++ {
				huge[headerSize+4+i] = 0xFF
			}
			f.Add(huge)
		}
	}
}

// requireCorruptError checks the failure contract shared by every reader:
// the error wraps ErrCorrupt and carries a plausible byte offset.
func requireCorruptError(t *testing.T, err error, size int) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("failure does not wrap ErrCorrupt: %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("failure carries no *CorruptError: %v", err)
	}
	if ce.Offset < 0 || ce.Offset > int64(size+trailerSize) {
		t.Fatalf("implausible corruption offset %d for %d input bytes", ce.Offset, size)
	}
}

// FuzzReadGraph is the adversarial-input wall around the snapshot reader
// and Open, which rdfalignd runs on every uploaded snapshot: whatever
// bytes arrive, both must return (never panic), must not allocate
// proportionally to unchecked length claims, and must classify every
// failure as ErrCorrupt with a byte offset. When a mutated input happens
// to parse, Open must describe the same graph, and the loaded graph
// must itself survive a write/read round trip to the identical graph.
func FuzzReadGraph(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		info, infoErr := openInfo(data)
		if infoErr != nil {
			requireCorruptError(t, infoErr, len(data))
		}
		g, err := ReadGraph(bytes.NewReader(data))
		if err != nil {
			requireCorruptError(t, err, len(data))
			return
		}
		if infoErr != nil {
			t.Fatalf("ReadGraph accepted bytes Open rejects: %v", infoErr)
		}
		if info.Kind != "graph" || len(info.Graphs) != 1 ||
			info.Graphs[0].Nodes != g.NumNodes() || info.Graphs[0].Triples != g.NumTriples() {
			t.Fatalf("Open: info %+v disagrees with the loaded graph (%d nodes, %d triples)",
				info, g.NumNodes(), g.NumTriples())
		}
		var buf bytes.Buffer
		if err := WriteGraphMapped(&buf, g); err != nil {
			t.Fatalf("re-serialising an accepted graph: %v", err)
		}
		g2, err := ReadGraph(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a re-serialised graph: %v", err)
		}
		requireGraphsIdentical(t, g, g2)
	})
}

// FuzzOpenGraphMapped is the adversarial-input wall around the mapped
// open, the path every graph file written today takes: whatever bytes the
// file holds, OpenGraphMapped must return (never panic, never fault on the
// mapping) and either fail with ErrCorrupt or serve a graph with the same
// labels and triples as the heap load of the same bytes.
func FuzzOpenGraphMapped(f *testing.F) {
	addSeeds(f)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := OpenGraphMapped(path)
		if err != nil {
			requireCorruptError(t, err, len(data))
			return
		}
		defer g.Close()
		heap, err := ReadGraph(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("mapped open accepted bytes the heap load rejects: %v", err)
		}
		requireGraphsIdentical(t, heap, g)
	})
}
