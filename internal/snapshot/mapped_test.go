package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfalign/internal/rdf"
)

func writeMappedFile(t *testing.T, g *rdf.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := WriteGraphMappedFile(path, g); err != nil {
		t.Fatalf("WriteGraphMappedFile: %v", err)
	}
	return path
}

// TestMappedRoundTripBasic drives parsed documents through the mmap-native
// write → zero-copy open cycle and requires exact identity with the source
// graph, including the stored Dependents CSR.
func TestMappedRoundTripBasic(t *testing.T) {
	docs := []string{
		"<ss> <employer> <ed-uni> .\n<ss> <name> _:b2 .\n_:b2 <first> \"Slawek\" .\n",
		"<s> <p> \"raw\xffbyte\" .\n",
		"_:x <p> _:y .\n_:y <q> _:x .\n_:x <r> _:x .\n",
		"<s> <p> \"line\\nbreak \\\"q\\\" tab\\t é\" .\n",
		strings.Repeat("<hub> <p> <n> .\n<n> <val> \"lit\" .\n_:b <ref> <hub> .\n", 20),
	}
	for i, doc := range docs {
		g, err := rdf.ParseNTriplesString(doc, fmt.Sprintf("doc%d", i))
		if err != nil {
			t.Fatalf("doc %d: parse: %v", i, err)
		}
		path := writeMappedFile(t, g)
		got, err := OpenGraphMapped(path)
		if err != nil {
			t.Fatalf("doc %d: OpenGraphMapped: %v", i, err)
		}
		requireGraphsIdentical(t, g, got)
		requireDependentsIdentical(t, got)
		if err := got.Close(); err != nil {
			t.Fatalf("doc %d: Close: %v", i, err)
		}
	}
}

func TestMappedRoundTripEmpty(t *testing.T) {
	g := rdf.NewBuilder("").MustGraph()
	got, err := OpenGraphMapped(writeMappedFile(t, g))
	if err != nil {
		t.Fatalf("OpenGraphMapped: %v", err)
	}
	defer got.Close()
	requireGraphsIdentical(t, g, got)
}

// TestMappedRoundTripRandom is the property test of the tentpole: the
// mmap-backed graph must be indistinguishable from the heap graph it was
// written from — same labels, triples, CSRs — across random graphs, for
// all three read paths (zero-copy open, heap GRPM decode via ReadGraph,
// random-access decode via ReadGraphAt).
func TestMappedRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tested := 0
	for i := 0; i < 400 && tested < 100; i++ {
		g := randomGraph(r)
		if g == nil {
			continue
		}
		tested++
		path := writeMappedFile(t, g)

		mapped, err := OpenGraphMapped(path)
		if err != nil {
			t.Fatalf("OpenGraphMapped: %v", err)
		}
		requireGraphsIdentical(t, g, mapped)
		requireDependentsIdentical(t, mapped)

		// Heap decode of the same bytes: streaming reader.
		heap, err := ReadGraphFile(path)
		if err != nil {
			t.Fatalf("ReadGraphFile over mapped snapshot: %v", err)
		}
		requireGraphsIdentical(t, g, heap)
		requireDependentsIdentical(t, heap)

		// Heap decode: random-access reader.
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at, err := ReadGraphAt(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatalf("ReadGraphAt over mapped snapshot: %v", err)
		}
		requireGraphsIdentical(t, g, at)

		// The N-Triples serialisations must agree byte for byte.
		if w, m := rdf.FormatNTriples(g), rdf.FormatNTriples(mapped); w != m {
			t.Fatalf("serialisation of mapped graph differs from source")
		}
		mapped.Close()
	}
	if tested < 50 {
		t.Fatalf("only %d random graphs validated; generator too lossy", tested)
	}
}

// TestMappedWriteDeterministic pins byte-determinism of the mapped writer.
func TestMappedWriteDeterministic(t *testing.T) {
	g, err := rdf.ParseNTriplesString("<s> <p> <o> .\n<s> <q> \"v\" .\n_:b <p> <s> .\n", "det")
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := WriteGraphMapped(&b1, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteGraphMapped(&b2, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two writes of the same graph differ")
	}
}

// TestMappedCorruptionDetected flips every byte of a mapped snapshot in
// turn (sampled) and requires the open to fail with ErrCorrupt or yield a
// graph identical to the source — silent acceptance of corrupt columns is
// the failure mode the CRC exists to stop.
func TestMappedCorruptionDetected(t *testing.T) {
	g, err := rdf.ParseNTriplesString(
		"<s> <p> <o> .\n<s> <q> \"v\" .\n_:b <p> <s> .\n_:b <q> _:c .\n_:c <p> <o> .\n", "corrupt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraphMapped(&buf, g); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	dir := t.TempDir()
	for off := 0; off < len(orig); off++ {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x41
		path := filepath.Join(dir, "mut.snap")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := OpenGraphMapped(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, errMappedFallback) {
				t.Fatalf("offset %d: error does not wrap ErrCorrupt: %v", off, err)
			}
			continue
		}
		// A flip the reader accepted must be invisible (e.g. it landed in
		// the original byte's own value space and was reverted by ^).
		requireGraphsIdentical(t, g, got)
		got.Close()
	}
}

// TestMappedFallbackReadsPlainSnapshot checks OpenGraphMapped serves a
// GRPH snapshot written by an earlier build through the heap decoder.
func TestMappedFallbackReadsPlainSnapshot(t *testing.T) {
	g, err := rdf.ParseNTriplesString(legacyGraphDoc, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenGraphMapped(legacyGraphFixture)
	if err != nil {
		t.Fatalf("OpenGraphMapped on GRPH-only file: %v", err)
	}
	defer got.Close()
	requireGraphsIdentical(t, g, got)
}
