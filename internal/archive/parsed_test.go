package archive

import (
	"bytes"
	"testing"

	"rdfalign/internal/dataset"
	"rdfalign/internal/rdf"
)

// These tests close a coverage gap: archives were only ever built from
// programmatically constructed graphs, never from graphs that travelled
// through the serialise → parse pipeline (the shape every real deployment
// has). Parsed graphs renumber nodes, so they exercise the alignment and
// resolve paths under a different — but isomorphic — ID assignment, and
// pin that archive semantics depend on graph structure only.

// reparse round-trips a graph through the parallel writer and the strict
// parallel parser.
func reparse(t *testing.T, g *rdf.Graph) *rdf.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g, rdf.WithWriteWorkers(4)); err != nil {
		t.Fatal(err)
	}
	out, err := rdf.ParseNTriples(&buf, g.Name()+"-parsed",
		rdf.WithParseWorkers(4), rdf.WithStrictMode())
	if err != nil {
		t.Fatalf("reparse of %s failed: %v", g.Name(), err)
	}
	return out
}

// TestArchiveFromParsedGraphs: building an archive from parsed-from-text
// versions reconstructs every parsed version exactly and chains entities
// just as well as the builder-graph archive (row counts and compression
// agree — the alignment is structural, so node renumbering must not
// matter).
func TestArchiveFromParsedGraphs(t *testing.T) {
	d, err := dataset.GenerateGtoPdb(dataset.GtoPdbConfig{Versions: 3, Scale: 0.002, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	parsed := make([]*rdf.Graph, len(d.Graphs))
	for i, g := range d.Graphs {
		parsed[i] = reparse(t, g)
	}
	orig, err := build(d.Graphs, buildOpts{Align: hybridPair, ResolveAmbiguous: true})
	if err != nil {
		t.Fatal(err)
	}
	fromParsed, err := build(parsed, buildOpts{Align: hybridPair, ResolveAmbiguous: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range parsed {
		snap, err := fromParsed.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSets(tripleSet(snap), tripleSet(g)) {
			t.Fatalf("parsed archive: version %d round trip mismatch", i+1)
		}
	}
	os, ps := orig.GatherStats(), fromParsed.GatherStats()
	if orig.NumRows() != fromParsed.NumRows() {
		t.Errorf("row counts differ: builder graphs %d, parsed graphs %d",
			orig.NumRows(), fromParsed.NumRows())
	}
	if os.CompressionRatio != ps.CompressionRatio {
		t.Errorf("compression differs: builder graphs %v, parsed graphs %v",
			os.CompressionRatio, ps.CompressionRatio)
	}
}

// TestArchiveResolveFromParsedGraphs drives the occurrence-profile
// resolve path (resolve.go) with parsed inputs: the prefix-disjoint
// direct-mapping export chains only when ResolveAmbiguous is on, exactly
// as with builder-constructed graphs.
func TestArchiveResolveFromParsedGraphs(t *testing.T) {
	d, err := dataset.GenerateGtoPdb(dataset.GtoPdbConfig{Versions: 3, Scale: 0.002, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	parsed := make([]*rdf.Graph, len(d.Graphs))
	for i, g := range d.Graphs {
		parsed[i] = reparse(t, g)
	}
	plain, err := build(parsed, buildOpts{Align: hybridPair})
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := build(parsed, buildOpts{Align: hybridPair, ResolveAmbiguous: true})
	if err != nil {
		t.Fatal(err)
	}
	if ps := plain.GatherStats(); ps.CompressionRatio < 0.99 {
		t.Errorf("plain chaining unexpectedly compressed parsed export: %v", ps.CompressionRatio)
	}
	if rs := resolved.GatherStats(); rs.CompressionRatio > 0.6 {
		t.Errorf("resolution should compress parsed export substantially, got %v (%s)",
			rs.CompressionRatio, rs)
	}
	for i, g := range parsed {
		snap, err := resolved.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSets(tripleSet(snap), tripleSet(g)) {
			t.Fatalf("resolved parsed archive: version %d round trip mismatch", i+1)
		}
	}
}

// TestArchiveFromStreamedDataset runs the full ingestion pipeline end to
// end: stream-generate two versions as text, parse them in parallel, and
// archive the result.
func TestArchiveFromStreamedDataset(t *testing.T) {
	graphs := make([]*rdf.Graph, 2)
	for v := 1; v <= 2; v++ {
		var buf bytes.Buffer
		if _, err := dataset.StreamNTriples(&buf, dataset.StreamConfig{
			Triples: 4000, Version: v, Seed: 5,
		}); err != nil {
			t.Fatal(err)
		}
		g, err := rdf.ParseNTriples(&buf, "bench", rdf.WithParseWorkers(4), rdf.WithStrictMode())
		if err != nil {
			t.Fatal(err)
		}
		graphs[v-1] = g
	}
	a, err := build(graphs, buildOpts{Align: hybridPair})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range graphs {
		snap, err := a.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSets(tripleSet(snap), tripleSet(g)) {
			t.Fatalf("streamed archive: version %d round trip mismatch", i+1)
		}
	}
	st := a.GatherStats()
	// Most entities persist across the two versions, so the archive must
	// be visibly smaller than the two versions stored separately.
	if st.CompressionRatio > 0.95 {
		t.Errorf("streamed versions share most triples; expected compression, got %v", st.CompressionRatio)
	}
}
