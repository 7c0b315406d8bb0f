package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// the zero-copy open and both heap loads (ReadGraphFile, Open over
// bytes in memory).
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

		// Heap copy of the same bytes, read from the file.
		heap, err := ReadGraphFile(path)
		if err != nil {
			t.Fatalf("ReadGraphFile over mapped snapshot: %v", err)
		}
		requireGraphsIdentical(t, g, heap)
		requireDependentsIdentical(t, heap)

		// Heap copy of the section, read through an io.ReaderAt.
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at, err := openGraph(raw)
		if err != nil {
			t.Fatalf("Open over mapped snapshot: %v", err)
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
			if !errors.Is(err, ErrCorrupt) {
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
// GRPH snapshot written by an earlier build through the GRPH decoder.
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

// TestWriteFileFailureKeepsOldFile: a snapshot write that fails part way
// leaves the previous file byte-identical and no temporary file behind.
func TestWriteFileFailureKeepsOldFile(t *testing.T) {
	g, err := rdf.ParseNTriplesString("<s> <p> <o> .\n_:b <p> \"v\" .\n", "old")
	if err != nil {
		t.Fatal(err)
	}
	path := writeMappedFile(t, g)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	errFail := errors.New("writer failed")
	err = writeFile(path, func(w io.Writer) error {
		// More than the write buffer, so part of it reaches the file.
		if _, err := w.Write(bytes.Repeat([]byte{0xAB}, 3<<20)); err != nil {
			return err
		}
		return errFail
	})
	if !errors.Is(err, errFail) {
		t.Fatalf("writeFile returned %v, want the writer's error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write changed the existing snapshot")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v after a failed write, want only %s", names, filepath.Base(path))
	}
}

// TestMappedGraphSurvivesRewrite: rewriting the path a graph is mapped
// from replaces the file, not its bytes, so the mapped graph keeps
// answering with the old content while a new open sees the new one.
func TestMappedGraphSurvivesRewrite(t *testing.T) {
	old, err := rdf.ParseNTriplesString(strings.Repeat("<hub> <p> <n> .\n<n> <val> \"lit\" .\n_:b <ref> <hub> .\n", 50), "old")
	if err != nil {
		t.Fatal(err)
	}
	path := writeMappedFile(t, old)
	mapped, err := OpenGraphMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	next, err := rdf.ParseNTriplesString("<x> <y> <z> .\n", "new")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteGraphMappedFile(path, next); err != nil {
		t.Fatal(err)
	}
	requireGraphsIdentical(t, old, mapped)
	reopened, err := OpenGraphMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireGraphsIdentical(t, next, reopened)
}

// TestSwap32 pins the byte swap big-endian hosts apply to the integer
// columns before casting them: swapping twice is the identity, and
// swapping once yields the big-endian reading of the little-endian words.
func TestSwap32(t *testing.T) {
	words := []uint32{0, 1, 0x01020304, 0xDEADBEEF, 0x80000000}
	var orig []byte
	for _, w := range words {
		orig = binary.LittleEndian.AppendUint32(orig, w)
	}
	b := bytes.Clone(orig)
	swap32(b)
	for i, w := range words {
		if got := binary.BigEndian.Uint32(b[4*i:]); got != w {
			t.Fatalf("word %d: big-endian reading after swap is %#x, want %#x", i, got, w)
		}
	}
	swap32(b)
	if !bytes.Equal(b, orig) {
		t.Fatalf("swapping twice gave % x, want % x", b, orig)
	}
}
