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

	"rdfalign/internal/archive"
	"rdfalign/internal/dataset"
	"rdfalign/internal/rdf"
)

// requireGraphsIdentical asserts node-ID- and triple-identity (not mere
// isomorphism): snapshots must preserve the exact internal numbering so
// loaded graphs are drop-in replacements in ID-carrying data structures.
func requireGraphsIdentical(t *testing.T, want, got *rdf.Graph) {
	t.Helper()
	if want.Name() != got.Name() {
		t.Fatalf("name changed: %q -> %q", want.Name(), got.Name())
	}
	if want.NumNodes() != got.NumNodes() || want.NumTriples() != got.NumTriples() {
		t.Fatalf("counts changed: %d/%d nodes, %d/%d triples",
			want.NumNodes(), got.NumNodes(), want.NumTriples(), got.NumTriples())
	}
	if want.NumBlanks() != got.NumBlanks() || want.NumLiterals() != got.NumLiterals() ||
		want.NumURIs() != got.NumURIs() {
		t.Fatalf("label-kind counts changed")
	}
	for i := 0; i < want.NumNodes(); i++ {
		if want.Label(rdf.NodeID(i)) != got.Label(rdf.NodeID(i)) {
			t.Fatalf("label of node %d changed: %s -> %s",
				i, want.Label(rdf.NodeID(i)), got.Label(rdf.NodeID(i)))
		}
	}
	wt, gt := want.Triples(), got.Triples()
	for i := range wt {
		if wt[i] != gt[i] {
			t.Fatalf("triple %d changed: %v -> %v", i, wt[i], gt[i])
		}
	}
}

// noDepColumns hides the stored dependency CSR of its columns, so the graph
// built over them rebuilds Dependents lazily.
type noDepColumns struct{ rdf.Columns }

func (noDepColumns) DepCSR() ([]int32, []rdf.NodeID) { return nil, nil }

// requireDependentsIdentical compares the loaded Dependents CSR with a
// lazily rebuilt one, element for element.
func requireDependentsIdentical(t *testing.T, loaded *rdf.Graph) {
	t.Helper()
	rebuilt, err := rdf.FromColumns(noDepColumns{loaded.Columns()})
	if err != nil {
		t.Fatalf("rebuilding twin graph: %v", err)
	}
	for n := 0; n < loaded.NumNodes(); n++ {
		a, b := loaded.Dependents(rdf.NodeID(n)), rebuilt.Dependents(rdf.NodeID(n))
		if len(a) != len(b) {
			t.Fatalf("Dependents(%d): loaded %d entries, rebuilt %d", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Dependents(%d)[%d]: loaded %d, rebuilt %d", n, i, a[i], b[i])
			}
		}
		wantOut := rebuilt.Out(rdf.NodeID(n))
		gotOut := loaded.Out(rdf.NodeID(n))
		if len(wantOut) != len(gotOut) {
			t.Fatalf("Out(%d) length differs", n)
		}
		for i := range wantOut {
			if wantOut[i] != gotOut[i] {
				t.Fatalf("Out(%d)[%d] differs", n, i)
			}
		}
	}
}

func roundTripGraph(t *testing.T, g *rdf.Graph) *rdf.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteGraphMapped(&buf, g); err != nil {
		t.Fatalf("WriteGraphMapped: %v", err)
	}
	got, err := ReadGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	return got
}

func TestGraphRoundTripBasic(t *testing.T) {
	b := rdf.NewBuilder("basic")
	s := b.URI("http://example.org/subject")
	s2 := b.URI("http://example.org/subject2")
	l := b.Literal("a value")
	bl := b.Blank("x")
	b.TripleURI(s, "http://example.org/p", l)
	b.TripleURI(s, "http://example.org/q", bl)
	b.TripleURI(bl, "http://example.org/p", s2)
	g := b.MustGraph()
	got := roundTripGraph(t, g)
	requireGraphsIdentical(t, g, got)
	requireDependentsIdentical(t, got)
}

func TestGraphRoundTripEmpty(t *testing.T) {
	g := rdf.NewBuilder("").MustGraph()
	got := roundTripGraph(t, g)
	requireGraphsIdentical(t, g, got)
}

// TestGraphRoundTripParsedDocs drives documents from the parser fuzz
// seeds — including invalid UTF-8 admitted by lax parsing and blank-node
// cycles — through the snapshot round trip.
func TestGraphRoundTripParsedDocs(t *testing.T) {
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
		got := roundTripGraph(t, g)
		requireGraphsIdentical(t, g, got)
		requireDependentsIdentical(t, got)
	}
}

// randomGraph builds a random graph mixing URIs with shared and disjoint
// prefixes, repeated literals, named and fresh blanks, and blank cycles.
func randomGraph(r *rand.Rand) *rdf.Graph {
	b := rdf.NewBuilder(fmt.Sprintf("rand-%d", r.Int()))
	numNodes := 1 + r.Intn(40)
	nodes := make([]rdf.NodeID, 0, numNodes)
	for i := 0; i < numNodes; i++ {
		switch r.Intn(4) {
		case 0:
			nodes = append(nodes, b.Literal(fmt.Sprintf("value %c%d", 'a'+r.Intn(3), r.Intn(10))))
		case 1:
			if r.Intn(2) == 0 {
				nodes = append(nodes, b.FreshBlank())
			} else {
				nodes = append(nodes, b.Blank(fmt.Sprintf("b%d", r.Intn(8))))
			}
		default:
			nodes = append(nodes, b.URI(fmt.Sprintf("http://example.org/%s/%d", []string{"people", "places", "x"}[r.Intn(3)], r.Intn(50))))
		}
	}
	preds := make([]rdf.NodeID, 1+r.Intn(4))
	for i := range preds {
		preds[i] = b.URI(fmt.Sprintf("http://example.org/pred/%d", i))
	}
	for i := 0; i < 2+r.Intn(60); i++ {
		b.Triple(nodes[r.Intn(len(nodes))], preds[r.Intn(len(preds))], nodes[r.Intn(len(nodes))])
	}
	g, err := b.Graph()
	if err != nil {
		// Drew a literal in subject position; the RDF conditions reject
		// that, which is fine for a random generator — skip the draw.
		return nil
	}
	return g
}

func TestGraphRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tested := 0
	for i := 0; i < 400 && tested < 200; i++ {
		g := randomGraph(r)
		if g == nil {
			continue // drew a literal subject; validation rejected it
		}
		tested++
		got := roundTripGraph(t, g)
		requireGraphsIdentical(t, g, got)
		requireDependentsIdentical(t, got)
	}
	if tested < 50 {
		t.Fatalf("only %d random graphs validated; generator too lossy", tested)
	}
}

// TestWriteDeterministic pins that the same archive serialises to the
// same bytes.
func TestWriteDeterministic(t *testing.T) {
	a, _ := buildTestArchive(t)
	var b1, b2 bytes.Buffer
	if err := WriteArchive(&b1, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteArchive(&b2, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two serialisations of the same archive differ")
	}
}

// buildTestArchive constructs a GtoPdb-style archive exercising the
// resolve path (ResolveAmbiguous), with enough versions that intervals,
// gaps and label runs all occur.
func buildTestArchive(t *testing.T) (*archive.Archive, []*rdf.Graph) {
	t.Helper()
	d, err := dataset.GenerateGtoPdb(dataset.GtoPdbConfig{Versions: 4, Scale: 0.002, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a, err := buildHybrid(d.Graphs, true)
	if err != nil {
		t.Fatal(err)
	}
	return a, d.Graphs
}

func requireArchivesEqual(t *testing.T, want, got *archive.Archive) {
	t.Helper()
	if want.Versions() != got.Versions() || want.NumEntities() != got.NumEntities() ||
		want.NumRows() != got.NumRows() {
		t.Fatalf("archive shape changed: versions %d/%d entities %d/%d rows %d/%d",
			want.Versions(), got.Versions(), want.NumEntities(), got.NumEntities(),
			want.NumRows(), got.NumRows())
	}
	wr, gr := want.Rows(), got.Rows()
	for i := range wr {
		if wr[i].S != gr[i].S || wr[i].P != gr[i].P || wr[i].O != gr[i].O ||
			len(wr[i].Intervals) != len(gr[i].Intervals) {
			t.Fatalf("row %d changed: %+v -> %+v", i, wr[i], gr[i])
		}
		for j := range wr[i].Intervals {
			if wr[i].Intervals[j] != gr[i].Intervals[j] {
				t.Fatalf("row %d interval %d changed", i, j)
			}
		}
	}
	for e := 0; e < want.NumEntities(); e++ {
		for v := 0; v < want.Versions(); v++ {
			wl, wok := want.LabelAt(archive.EntityID(e), v)
			gl, gok := got.LabelAt(archive.EntityID(e), v)
			if wok != gok || wl != gl {
				t.Fatalf("LabelAt(%d, %d) changed: %v/%v -> %v/%v", e, v, wl, wok, gl, gok)
			}
		}
	}
	if ws, gs := want.GatherStats().String(), got.GatherStats().String(); ws != gs {
		t.Fatalf("stats changed:\nbuilt:  %s\nloaded: %s", ws, gs)
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	a, _ := buildTestArchive(t)
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatalf("WriteArchive: %v", err)
	}
	blob := buf.Bytes()
	got, err := openArchive(blob)
	if err != nil {
		t.Fatalf("Open+Archive: %v", err)
	}
	requireArchivesEqual(t, a, got)

	// The loaded rows reconstruct every version node for node.
	for v := 0; v < a.Versions(); v++ {
		want, err := a.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := got.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		requireGraphsIdentical(t, want, loaded)
		requireDependentsIdentical(t, loaded)
	}
}

// TestArchiveResolveQueriesAfterLoad is the resolve-path regression test:
// an archive built through resolve.go's ambiguous-class chaining must
// answer version reconstruction queries byte-identically after a snapshot
// round trip, across all versions.
func TestArchiveResolveQueriesAfterLoad(t *testing.T) {
	a, graphs := buildTestArchive(t)
	path := filepath.Join(t.TempDir(), "arc.snap")
	if err := WriteArchiveFile(path, a); err != nil {
		t.Fatal(err)
	}
	loaded := readArchiveFile(t, path)
	for v := range graphs {
		want, err := a.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		if wd, gd := rdf.FormatNTriples(want), rdf.FormatNTriples(got); wd != gd {
			t.Fatalf("version %d reconstruction differs after load:\n--- built\n%.400s\n--- loaded\n%.400s", v, wd, gd)
		}
	}
}

func readArchiveFile(t *testing.T, path string) *archive.Archive {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := openArchive(data)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGraphFileRoundTrip(t *testing.T) {
	g, err := rdf.ParseNTriplesString("<s> <p> <o> .\n_:b <p> \"v\" .\n", "file")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := WriteGraphMappedFile(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsIdentical(t, g, got)
}

func TestInfo(t *testing.T) {
	a, _ := buildTestArchive(t)
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		t.Fatal(err)
	}
	info, err := openInfo(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "archive" || info.Versions != a.Versions() ||
		info.Entities != a.NumEntities() || info.Rows != a.NumRows() {
		t.Fatalf("archive info wrong: %+v", info)
	}
	var names []string
	for _, sec := range info.Sections {
		names = append(names, sec.Name)
	}
	if got := strings.Join(names, ","); got != "AMET,ALBL,AROW,FOOT" {
		t.Fatalf("archive sections %s, want AMET,ALBL,AROW,FOOT", got)
	}
	if len(info.Graphs) != 0 {
		t.Fatalf("archive info lists %d graph sections, want none", len(info.Graphs))
	}
	if !strings.Contains(info.String(), "kind=archive") {
		t.Fatalf("info rendering missing kind: %s", info)
	}

	// A graph snapshot: the summary decodes the GRPM header.
	g, err := rdf.ParseNTriplesString("<s> <p> <o> .\n", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteGraphMapped(&buf, g); err != nil {
		t.Fatal(err)
	}
	ginfo, err := openInfo(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ginfo.Kind != "graph" || len(ginfo.Graphs) != 1 || ginfo.Graphs[0].Name != "tiny" ||
		ginfo.Graphs[0].Nodes != 3 || ginfo.Graphs[0].Triples != 1 {
		t.Fatalf("graph info wrong: %+v", ginfo)
	}
	if want := `graph[0]: name="tiny" nodes=3 triples=1`; !strings.Contains(ginfo.String(), want) {
		t.Fatalf("graph info rendering lacks %q:\n%s", want, ginfo)
	}
}

// TestCorruptionDetected flips, truncates and rewrites bytes of a valid
// snapshot: every mutilation must fail with ErrCorrupt (never a panic),
// and the error must carry a byte offset.
func TestCorruptionDetected(t *testing.T) {
	g, err := rdf.ParseNTriplesString(
		"<http://a/s> <http://a/p> <http://a/o> .\n<http://a/s> <http://a/q> \"v\" .\n_:b <http://a/p> _:c .\n", "c")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraphMapped(&buf, g); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	requireCorrupt := func(t *testing.T, data []byte) {
		t.Helper()
		_, err := ReadGraph(bytes.NewReader(data))
		if err == nil {
			t.Fatal("mutilated snapshot accepted")
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error does not wrap ErrCorrupt: %v", err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Offset < 0 {
			t.Fatalf("error carries no byte offset: %v", err)
		}
	}

	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(blob); cut += 1 + len(blob)/97 {
			requireCorrupt(t, blob[:cut])
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		for pos := 0; pos < len(blob); pos += 1 + len(blob)/61 {
			mut := bytes.Clone(blob)
			mut[pos] ^= 0x41
			if _, err := ReadGraph(bytes.NewReader(mut)); err != nil {
				requireCorrupt(t, mut)
			}
			// A flip the CRC cannot see (e.g. inside ignored trailer
			// padding) may legitimately still parse; what matters is no
			// panic and no silent wrong answer on CRC-covered bytes.
		}
	})
	t.Run("badmagic", func(t *testing.T) {
		mut := bytes.Clone(blob)
		mut[0] = 'X'
		requireCorrupt(t, mut)
	})
	t.Run("badversion", func(t *testing.T) {
		mut := bytes.Clone(blob)
		mut[len(headerMagic)] = 0xFF
		requireCorrupt(t, mut)
	})
	t.Run("hugelength", func(t *testing.T) {
		mut := bytes.Clone(blob)
		// Overwrite the first section's payload length with an absurd claim.
		for i := 0; i < 8; i++ {
			mut[headerSize+4+i] = 0xFF
		}
		requireCorrupt(t, mut)
	})
	t.Run("archive", func(t *testing.T) {
		a, _ := buildTestArchive(t)
		var ab bytes.Buffer
		if err := WriteArchive(&ab, a); err != nil {
			t.Fatal(err)
		}
		ablob := ab.Bytes()
		for cut := 0; cut < len(ablob); cut += 1 + len(ablob)/53 {
			if _, err := openArchive(ablob[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: error does not wrap ErrCorrupt: %v", cut, err)
			}
		}
	})
}

// openInfo, openGraph and openArchive read an in-memory snapshot through
// one Handle.
func openInfo(data []byte) (*Info, error) {
	h, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return h.Info(), nil
}

func openGraph(data []byte) (*rdf.Graph, error) {
	h, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return h.Graph()
}

func openArchive(data []byte) (*archive.Archive, error) {
	h, err := Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return h.Archive()
}

// countingReaderAt counts how often each byte of data is read.
type countingReaderAt struct {
	data  []byte
	reads []int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n := copy(p, c.data[off:])
	for i := range n {
		c.reads[int(off)+i]++
	}
	return n, nil
}

// testSnapshots returns a graph snapshot and an archive snapshot.
func testSnapshots(t *testing.T) (graph, arch []byte) {
	t.Helper()
	a, graphs := buildTestArchive(t)
	var gb, ab bytes.Buffer
	if err := WriteGraphMapped(&gb, graphs[len(graphs)-1]); err != nil {
		t.Fatal(err)
	}
	if err := WriteArchive(&ab, a); err != nil {
		t.Fatal(err)
	}
	return gb.Bytes(), ab.Bytes()
}

// TestOpenReadsEachByteOnce: Open verifies every section, and Graph or
// Archive then decodes from the verified bytes, so opening and loading a
// snapshot reads no byte of the file twice.
func TestOpenReadsEachByteOnce(t *testing.T) {
	graphBlob, archiveBlob := testSnapshots(t)
	for _, c := range []struct {
		name string
		data []byte
		load func(*Handle) error
	}{
		{"graph", graphBlob, func(h *Handle) error { _, err := h.Graph(); return err }},
		{"archive", archiveBlob, func(h *Handle) error { _, err := h.Archive(); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := &countingReaderAt{data: c.data, reads: make([]int, len(c.data))}
			h, err := Open(r, int64(len(c.data)))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.load(h); err != nil {
				t.Fatal(err)
			}
			for off, n := range r.reads {
				if n > 1 {
					t.Fatalf("byte %d of %d read %d times", off, len(c.data), n)
				}
			}
		})
	}
}

// TestOpenRejectsSharedSectionOffset: a footer table whose AROW entry
// points at the ALBL section is corrupt, although that offset was already
// read and verified as ALBL.
func TestOpenRejectsSharedSectionOffset(t *testing.T) {
	_, blob := testSnapshots(t)
	info, err := openInfo(blob)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := newSectionWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []uint32{secArchiveMeta, secArchiveLabels} {
		s := info.Sections[i]
		payload := blob[s.Offset+int64(secHdrSize) : s.Offset+int64(secHdrSize)+s.Length]
		if err := sw.section(id, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	forged := sw.table[1]
	forged.id = secArchiveRows
	sw.table = append(sw.table, forged)
	if err := sw.finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := openInfo(buf.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("AROW entry at the ALBL offset: %v, want ErrCorrupt", err)
	}
}
