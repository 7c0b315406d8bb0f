package rdfalign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMethodRoundTrip exhaustively round-trips every method through
// String/ParseMethod (the JSON job API serialises methods by name), in
// every case variant, and checks that the unknown-method error lists the
// valid names.
func TestMethodRoundTrip(t *testing.T) {
	ms := Methods()
	if len(ms) != 5 {
		t.Fatalf("Methods() = %v, want 5 methods", ms)
	}
	for _, m := range ms {
		name := m.String()
		if strings.HasPrefix(name, "method(") {
			t.Fatalf("method %d has no name", int(m))
		}
		title := strings.ToUpper(name[:1]) + name[1:]
		for _, variant := range []string{name, strings.ToUpper(name), title} {
			got, err := ParseMethod(variant)
			if err != nil {
				t.Fatalf("ParseMethod(%q): %v", variant, err)
			}
			if got != m {
				t.Fatalf("ParseMethod(%q) = %v, want %v", variant, got, m)
			}
		}

		// encoding.TextMarshaler round trip (JSON uses it).
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != `"`+name+`"` {
			t.Fatalf("json.Marshal(%v) = %s", m, data)
		}
		var back Method
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Fatalf("json round trip: %v != %v", back, m)
		}
	}

	_, err := ParseMethod("nope")
	if err == nil {
		t.Fatal("ParseMethod should reject unknown names")
	}
	for _, m := range ms {
		if !strings.Contains(err.Error(), m.String()) {
			t.Fatalf("unknown-method error %q does not list %q", err, m)
		}
	}
	var m Method
	if err := m.UnmarshalText([]byte("garbage")); err == nil {
		t.Fatal("UnmarshalText should reject unknown names")
	}
}

// TestAlignerWith derives a new aligner from an existing one and checks
// the base options carry over while the added ones apply.
func TestAlignerWith(t *testing.T) {
	base, err := NewAligner(WithMethod(Overlap), WithTheta(0.65))
	if err != nil {
		t.Fatal(err)
	}
	if base.Method() != Overlap || base.Theta() != 0.65 {
		t.Fatalf("accessors: %v/%v", base.Method(), base.Theta())
	}
	var events int
	derived, err := base.With(WithProgress(func(Progress) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	if derived.Method() != Overlap || derived.Theta() != 0.65 {
		t.Fatalf("derived lost base options: %v/%v", derived.Method(), derived.Theta())
	}
	if derived == base {
		t.Fatal("With should return a new aligner")
	}
	g1, _ := ParseNTriplesString(`<http://x/a> <http://x/p> "v" .`+"\n", "g1")
	g2, _ := ParseNTriplesString(`<http://x/a> <http://x/p> "w" .`+"\n", "g2")
	if _, err := derived.Align(context.Background(), g1, g2); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("derived aligner did not report progress")
	}
	// Later options win: overriding the method on top of the base works.
	over, err := base.With(WithMethod(Trivial))
	if err != nil {
		t.Fatal(err)
	}
	if over.Method() != Trivial || over.Theta() != 0.65 {
		t.Fatalf("override: %v/%v", over.Method(), over.Theta())
	}
	// Invalid additions surface as errors.
	if _, err := base.With(WithTheta(2)); err == nil {
		t.Fatal("With(WithTheta(2)) should fail validation")
	}
}

// TestAlignmentStale checks the staleness introspection that mirrors
// ApplyDelta's version gating.
func TestAlignmentStale(t *testing.T) {
	al, err := NewAligner()
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := ParseNTriplesString(`<http://x/a> <http://x/p> "v" .`+"\n", "g1")
	g2, _ := ParseNTriplesString(`<http://x/a> <http://x/p> "v" .`+"\n", "g2")
	a1, err := al.Align(context.Background(), g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Stale() {
		t.Fatal("fresh alignment is stale")
	}
	s, err := ParseEditScriptString("+ <http://x/b> <http://x/p> \"w\" .\n")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := a1.ApplyDelta(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Stale() {
		t.Fatal("superseded alignment should be stale")
	}
	if a2.Stale() {
		t.Fatal("newest alignment should not be stale")
	}
}

// TestOpenSnapshotHandle exercises the facade over both snapshot kinds:
// the graph summary of a GRPM file, the archive file's sections, version
// reads from the archive rows, and the appendability of a loaded archive
// (RebuildTail).
func TestOpenSnapshotHandle(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	g1, _ := ParseNTriplesString(`<http://x/a> <http://x/p> "v" .`+"\n", "g1")
	g2, _ := ParseNTriplesString("<http://x/a> <http://x/p> \"v\" .\n<http://x/b> <http://x/p> \"w\" .\n", "g2")
	al, err := NewAligner()
	if err != nil {
		t.Fatal(err)
	}
	arch, err := al.BuildArchive(ctx, []*Graph{g1, g2})
	if err != nil {
		t.Fatal(err)
	}

	gPath := filepath.Join(dir, "g.snap")
	aPath := filepath.Join(dir, "a.snap")
	if err := WriteGraphSnapshotMappedFile(gPath, g1); err != nil {
		t.Fatal(err)
	}
	if err := WriteArchiveSnapshotFile(aPath, arch); err != nil {
		t.Fatal(err)
	}

	// Graph kind: Graph() and Version(0) work, Archive() refuses.
	gh, err := OpenSnapshot(gPath)
	if err != nil {
		t.Fatal(err)
	}
	defer gh.Close()
	if gh.IsArchive() || gh.Versions() != 1 {
		t.Fatalf("graph handle: archive=%v versions=%d", gh.IsArchive(), gh.Versions())
	}
	if want := `graph[0]: name="g1" nodes=3 triples=1`; !strings.Contains(gh.Info().String(), want) {
		t.Fatalf("graph info lacks %q:\n%s", want, gh.Info())
	}
	if g, err := gh.Graph(); err != nil || g.NumTriples() != 1 {
		t.Fatalf("graph load: %v", err)
	}
	if g, err := gh.Version(0); err != nil || g.NumTriples() != 1 {
		t.Fatalf("graph Version(0): %v", err)
	}
	if _, err := gh.Version(1); err == nil {
		t.Fatal("graph Version(1) should fail")
	}
	if _, err := gh.Archive(); err == nil {
		t.Fatal("Archive() on a graph snapshot should fail")
	}

	// Archive kind: Archive(), Version(v) work, Graph() refuses.
	ah, err := OpenSnapshot(aPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()
	if !ah.IsArchive() || ah.Versions() != 2 {
		t.Fatalf("archive handle: archive=%v versions=%d", ah.IsArchive(), ah.Versions())
	}
	if _, err := ah.Graph(); err == nil {
		t.Fatal("Graph() on an archive snapshot should fail")
	}
	var sections []string
	for _, sec := range ah.Info().Sections {
		sections = append(sections, sec.Name)
	}
	if got := strings.Join(sections, ","); got != "AMET,ALBL,AROW,FOOT" {
		t.Fatalf("archive sections %s, want AMET,ALBL,AROW,FOOT", got)
	}
	for v := 0; v < arch.Versions(); v++ {
		want, err := arch.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ah.Version(v)
		if err != nil {
			t.Fatalf("archive Version(%d): %v", v, err)
		}
		requireSameGraph(t, want, got)
	}
	loaded, err := ah.Archive()
	if err != nil {
		t.Fatal(err)
	}

	// A loaded archive cannot append until its tail is rebuilt; after
	// RebuildTail an append produces the same state as appending to the
	// original.
	if loaded.CanAppend() {
		t.Fatal("snapshot-loaded archive should not be appendable yet")
	}
	if err := loaded.RebuildTail(); err != nil {
		t.Fatal(err)
	}
	if !loaded.CanAppend() {
		t.Fatal("RebuildTail should make the archive appendable")
	}
	g3, _ := ParseNTriplesString("<http://x/a> <http://x/p> \"v\" .\n<http://x/c> <http://x/p> \"y\" .\n", "g3")
	if _, err := al.AppendVersion(ctx, loaded, g3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := al.AppendVersion(ctx, arch, g3, nil); err != nil {
		t.Fatal(err)
	}
	if ls, os := loaded.GatherStats(), arch.GatherStats(); ls != os {
		t.Fatalf("append after RebuildTail diverged:\nloaded:   %+v\noriginal: %+v", ls, os)
	}

	if _, err := OpenSnapshot(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("OpenSnapshot on a missing file should fail")
	}
}

// requireSameGraph fails unless got equals want node for node: same name,
// labels under the same node IDs, and the same triples.
func requireSameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.Name() != got.Name() || want.NumNodes() != got.NumNodes() || want.NumTriples() != got.NumTriples() {
		t.Fatalf("graph shape differs: %q %d nodes %d triples, want %q %d nodes %d triples",
			got.Name(), got.NumNodes(), got.NumTriples(), want.Name(), want.NumNodes(), want.NumTriples())
	}
	for n := 0; n < want.NumNodes(); n++ {
		if want.Label(NodeID(n)) != got.Label(NodeID(n)) {
			t.Fatalf("node %d: label %v, want %v", n, got.Label(NodeID(n)), want.Label(NodeID(n)))
		}
	}
	gotTriples := got.Triples()
	for i, tr := range want.Triples() {
		if gotTriples[i] != tr {
			t.Fatalf("triple %d: %v, want %v", i, gotTriples[i], tr)
		}
	}
}

// Snapshot files written by the earlier build whose writer emitted varint
// GRPH graph sections: a graph snapshot of legacyGraphDoc, and an archive
// of legacyArchiveDocs (built with WithResolveAmbiguous) that carries one
// GRPH copy of every version next to its rows.
var (
	legacyGraphFixture   = filepath.Join("internal", "snapshot", "testdata", "graph-grph.snap")
	legacyArchiveFixture = filepath.Join("internal", "snapshot", "testdata", "archive-grph.snap")
	legacyArchiveDocs    = []string{
		"<a> <p> <b> .\n<b> <p> \"x\" .\n_:n <q> <a> .\n",
		"<a> <p> <b> .\n<b> <p> \"y\" .\n_:n <q> <a> .\n<c> <p> <a> .\n",
		"<a> <p> <b> .\n<b2> <p> \"y\" .\n<c> <p> <a> .\n<a> <q> <c> .\n",
	}
)

const legacyGraphDoc = "<http://example.org/s> <http://example.org/p> \"v\" .\n" +
	"_:b <http://example.org/p> <http://example.org/s> .\n" +
	"_:b <http://example.org/q> _:c .\n" +
	"_:c <http://example.org/p> \"raw\xffbyte\" .\n" +
	"<http://example.org/s> <http://example.org/q> <http://example.org/t> .\n"

// TestOpenSnapshotRejectsFlippedByte: OpenSnapshot checksums each section
// once, and a byte flipped in any section's header, payload or CRC — of a
// graph or an archive file — still fails the open with ErrSnapshotCorrupt.
func TestOpenSnapshotRejectsFlippedByte(t *testing.T) {
	dir := t.TempDir()
	g1, _ := ParseNTriplesString("<http://x/a> <http://x/p> \"v\" .\n_:b <http://x/p> <http://x/a> .\n", "g1")
	g2, _ := ParseNTriplesString("<http://x/a> <http://x/p> \"v\" .\n<http://x/b> <http://x/p> \"w\" .\n", "g2")
	al, err := NewAligner()
	if err != nil {
		t.Fatal(err)
	}
	arch, err := al.BuildArchive(context.Background(), []*Graph{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	gPath, aPath := filepath.Join(dir, "g.snap"), filepath.Join(dir, "a.snap")
	if err := WriteGraphSnapshotMappedFile(gPath, g1); err != nil {
		t.Fatal(err)
	}
	if err := WriteArchiveSnapshotFile(aPath, arch); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{gPath, aPath} {
		h, err := OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		sections := h.Info().Sections
		h.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, sec := range sections {
			payload := sec.Offset + 12 // section id and payload length
			for _, pos := range []int64{sec.Offset, payload + sec.Length/2, payload + sec.Length} {
				mut := bytes.Clone(data)
				mut[pos] ^= 0x20
				bad := filepath.Join(dir, "bad.snap")
				if err := os.WriteFile(bad, mut, 0o644); err != nil {
					t.Fatal(err)
				}
				if h, err := OpenSnapshot(bad); !errors.Is(err, ErrSnapshotCorrupt) {
					if h != nil {
						h.Close()
					}
					t.Errorf("%s: flip at %d in section %s: %v, want ErrSnapshotCorrupt", filepath.Base(path), pos, sec.Name, err)
				}
			}
		}
	}
}

// TestLegacySnapshotFixtures: snapshots written before GRPM became the only
// graph encoding load to the same graphs and archive through the public
// API.
func TestLegacySnapshotFixtures(t *testing.T) {
	want, err := ParseNTriplesString(legacyGraphDoc, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenGraphSnapshotMapped(legacyGraphFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	requireSameGraph(t, want, mapped)
	gh, err := OpenSnapshot(legacyGraphFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer gh.Close()
	g, err := gh.Graph()
	if err != nil {
		t.Fatal(err)
	}
	requireSameGraph(t, want, g)

	var graphs []*Graph
	for i, doc := range legacyArchiveDocs {
		g, err := ParseNTriplesString(doc, "v")
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		graphs = append(graphs, g)
	}
	al, err := NewAligner(WithResolveAmbiguous())
	if err != nil {
		t.Fatal(err)
	}
	built, err := al.BuildArchive(context.Background(), graphs)
	if err != nil {
		t.Fatal(err)
	}
	ah, err := OpenSnapshot(legacyArchiveFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()
	loaded, err := ah.Archive()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.GatherStats().String(), built.GatherStats().String(); got != want {
		t.Fatalf("legacy archive loads as\n%s\nwant\n%s", got, want)
	}
	for v := 0; v < built.Versions(); v++ {
		want, err := built.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ah.Version(v)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, want, got)
	}
}
