package snapshot

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"rdfalign/internal/rdf"
)

// Snapshots written by the earlier build whose writer emitted varint GRPH
// graph sections. legacyGraphFixture is the graph snapshot of
// legacyGraphDoc (graph name "fixture"); legacyArchiveFixture is the
// archive of fuzzArchiveDocs built with ResolveAmbiguous, which carries
// one GRPH section per version next to its entity and row sections.
const (
	legacyGraphFixture   = "testdata/graph-grph.snap"
	legacyArchiveFixture = "testdata/archive-grph.snap"
)

const legacyGraphDoc = "<http://example.org/s> <http://example.org/p> \"v\" .\n" +
	"_:b <http://example.org/p> <http://example.org/s> .\n" +
	"_:b <http://example.org/q> _:c .\n" +
	"_:c <http://example.org/p> \"raw\xffbyte\" .\n" +
	"<http://example.org/s> <http://example.org/q> <http://example.org/t> .\n"

// TestLegacyGraphFixture: a GRPH graph snapshot still loads, identically,
// through ReadGraph and Open, and its summary
// decodes the GRPH header.
func TestLegacyGraphFixture(t *testing.T) {
	want, err := rdf.ParseNTriplesString(legacyGraphDoc, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(legacyGraphFixture)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ReadGraph(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsIdentical(t, want, g)
	requireDependentsIdentical(t, g)
	at, err := openGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	requireGraphsIdentical(t, g, at)
	info, err := openInfo(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Graphs) != 1 || info.Graphs[0] != (GraphInfo{Name: "fixture", Nodes: g.NumNodes(), Triples: g.NumTriples()}) {
		t.Fatalf("legacy graph info wrong: %+v", info.Graphs)
	}
}

// TestLegacyArchiveFixture: an archive snapshot with per-version GRPH
// sections loads to the archive the same history builds today, and the
// rows reconstruct exactly the graphs those sections stored. The graph
// readers reject the file although it holds a GRPH[0] section.
func TestLegacyArchiveFixture(t *testing.T) {
	var graphs []*rdf.Graph
	for _, doc := range fuzzArchiveDocs {
		graphs = append(graphs, fuzzGraph(t, doc))
	}
	want, err := buildHybrid(graphs, true)
	if err != nil {
		t.Fatal(err)
	}
	got := readArchiveFile(t, legacyArchiveFixture)
	requireArchivesEqual(t, want, got)

	data, err := os.ReadFile(legacyArchiveFixture)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGraph(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadGraph on an archive snapshot: %v, want ErrCorrupt", err)
	}
	f, err := openBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < got.Versions(); v++ {
		c, err := f.section(secGraph, uint32(v))
		if err != nil {
			t.Fatal(err)
		}
		cols, err := decodeGraphBody(c)
		if err != nil {
			t.Fatal(err)
		}
		stored, err := rdf.FromColumns(cols)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := got.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		requireGraphsIdentical(t, stored, rebuilt)
	}
}
