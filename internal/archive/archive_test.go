package archive

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"rdfalign/internal/dataset"
	"rdfalign/internal/rdf"
)

func parse(t testing.TB, doc, name string) *rdf.Graph {
	t.Helper()
	g, err := rdf.ParseNTriplesString(doc, name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tripleSet renders a graph as a sorted multiset of label triples, the
// node-identity-independent comparison used by the round-trip tests.
func tripleSet(g *rdf.Graph) []string {
	var out []string
	for _, tr := range g.Triples() {
		out = append(out, g.Label(tr.S).String()+"|"+g.Label(tr.P).String()+"|"+g.Label(tr.O).String())
	}
	sort.Strings(out)
	return out
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestArchiveRoundTrip(t *testing.T) {
	v1 := parse(t, `
<ss> <employer> <ed-uni> .
<ed-uni> <name> "University of Edinburgh" .
<ss> <zip> "EH8" .
`, "v1")
	v2 := parse(t, `
<ss> <employer> <uoe> .
<uoe> <name> "University of Edinburgh" .
<ss> <zip> "EH8" .
<ss> <city> "Edinburgh" .
`, "v2")
	v3 := parse(t, `
<ss> <employer> <uoe> .
<uoe> <name> "University of Edinburgh" .
<ss> <city> "Edinburgh" .
`, "v3")
	a, err := build([]*rdf.Graph{v1, v2, v3}, buildOpts{Align: hybridPair})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range []*rdf.Graph{v1, v2, v3} {
		snap, err := a.Snapshot(i)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if !equalSets(tripleSet(snap), tripleSet(g)) {
			t.Errorf("version %d round trip mismatch:\ngot  %v\nwant %v",
				i+1, tripleSet(snap), tripleSet(g))
		}
	}
	// ed-uni and uoe chain into one entity (hybrid aligns them), so the
	// university-name row spans all three versions as one interval.
	st := a.GatherStats()
	if st.TotalTriples != 10 {
		t.Errorf("totalTriples = %d, want 10", st.TotalTriples)
	}
	// Rows: employer (1: entity chain covers rename), uni-name (1),
	// zip (1), city (1) = 4.
	if st.Rows != 4 {
		t.Errorf("rows = %d, want 4 (rename chained into one row); stats: %s", st.Rows, st)
	}
	if st.CompressionRatio >= 1 {
		t.Errorf("compression ratio %v should be < 1", st.CompressionRatio)
	}
}

func TestArchiveRenameRecordedAsLabelRun(t *testing.T) {
	v1 := parse(t, "<ss> <employer> <ed-uni> .\n<ed-uni> <name> \"UoE\" .\n", "v1")
	v2 := parse(t, "<ss> <employer> <uoe> .\n<uoe> <name> \"UoE\" .\n", "v2")
	a, err := build([]*rdf.Graph{v1, v2}, buildOpts{Align: hybridPair})
	if err != nil {
		t.Fatal(err)
	}
	// Find the university entity through the snapshot of v0 and check it
	// renames at v1.
	renamed := false
	for e := 0; e < a.NumEntities(); e++ {
		l0, ok0 := a.LabelAt(EntityID(e), 0)
		l1, ok1 := a.LabelAt(EntityID(e), 1)
		if ok0 && ok1 && l0.Value == "ed-uni" && l1.Value == "uoe" {
			renamed = true
		}
	}
	if !renamed {
		t.Error("the renamed university should be one entity with a label run change")
	}
}

func TestArchiveGapIntervals(t *testing.T) {
	// A triple present in v1 and v3 but not v2 gets two intervals.
	doc := "<a> <p> <b> .\n"
	other := "<a> <q> <b> .\n"
	v1 := parse(t, doc+other, "v1")
	v2 := parse(t, other, "v2")
	v3 := parse(t, doc+other, "v3")
	a, err := build([]*rdf.Graph{v1, v2, v3}, buildOpts{Align: hybridPair})
	if err != nil {
		t.Fatal(err)
	}
	st := a.GatherStats()
	if st.Rows != 2 {
		t.Fatalf("rows = %d, want 2", st.Rows)
	}
	if st.Intervals != 3 {
		t.Errorf("intervals = %d, want 3 (one row with a gap)", st.Intervals)
	}
	for i, g := range []*rdf.Graph{v1, v2, v3} {
		snap, err := a.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSets(tripleSet(snap), tripleSet(g)) {
			t.Errorf("version %d mismatch after gap", i+1)
		}
	}
}

func TestArchiveErrors(t *testing.T) {
	a := New(parse(t, "<a> <p> <b> .\n", "v1"))
	if _, err := a.Snapshot(-1); err == nil {
		t.Error("negative snapshot accepted")
	}
	if _, err := a.Snapshot(1); err == nil {
		t.Error("out-of-range snapshot accepted")
	}
}

func TestArchiveEFORoundTripAndCompression(t *testing.T) {
	d, err := dataset.GenerateEFO(dataset.EFOConfig{Versions: 5, Scale: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := build(d.Graphs, buildOpts{Align: hybridPair})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range d.Graphs {
		snap, err := a.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSets(tripleSet(snap), tripleSet(g)) {
			t.Fatalf("EFO version %d round trip mismatch", i+1)
		}
	}
	st := a.GatherStats()
	// Slowly-evolving data compresses well below per-version storage.
	if st.CompressionRatio > 0.6 {
		t.Errorf("EFO compression ratio %.3f unexpectedly poor (%s)", st.CompressionRatio, st)
	}
	// §6's observation: most enter/leave events coincide with the
	// subject entity appearing or disappearing — verify the measurement
	// runs and reports sane bounds.
	if st.EnterWithSubject > st.EnterEvents || st.LeaveWithSubject > st.LeaveEvents {
		t.Errorf("coupling counts exceed event counts: %s", st)
	}
	if !strings.Contains(st.String(), "compression=") {
		t.Error("stats rendering")
	}
}

// TestArchiveResolveAmbiguous: on direct-mapping exports with per-version
// prefixes, plain hybrid chaining compresses nothing (every predicate
// entity churns — the §5.1 predicate ambiguity), while occurrence-profile
// resolution restores chaining; both variants reconstruct every version
// exactly.
func TestArchiveResolveAmbiguous(t *testing.T) {
	d, err := dataset.GenerateGtoPdb(dataset.GtoPdbConfig{Versions: 3, Scale: 0.002, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := build(d.Graphs, buildOpts{Align: hybridPair})
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := build(d.Graphs, buildOpts{Align: hybridPair, ResolveAmbiguous: true})
	if err != nil {
		t.Fatal(err)
	}
	ps := plain.GatherStats()
	rs := resolved.GatherStats()
	if ps.CompressionRatio < 0.99 {
		t.Errorf("plain chaining unexpectedly compressed the prefix-disjoint export: %v", ps.CompressionRatio)
	}
	if rs.CompressionRatio > 0.6 {
		t.Errorf("resolution should compress substantially, got %v (%s)", rs.CompressionRatio, rs)
	}
	for i, g := range d.Graphs {
		snap, err := resolved.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSets(tripleSet(snap), tripleSet(g)) {
			t.Fatalf("resolved archive: version %d round trip mismatch", i+1)
		}
	}
	// §6's observation holds strongly once chaining works.
	if rs.EnterEvents > 0 && float64(rs.EnterWithSubject)/float64(rs.EnterEvents) < 0.5 {
		t.Errorf("expected most triple entries to coincide with their subject: %s", rs)
	}
}

func TestArchiveWithOverlap(t *testing.T) {
	d, err := dataset.GenerateGtoPdb(dataset.GtoPdbConfig{Versions: 3, Scale: 0.002, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := build(d.Graphs, buildOpts{Align: hybridPair})
	if err != nil {
		t.Fatal(err)
	}
	over, err := build(d.Graphs, buildOpts{Align: overlapPair(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Graphs {
		s1, err := plain.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := over.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		if !equalSets(tripleSet(s1), tripleSet(d.Graphs[i])) ||
			!equalSets(tripleSet(s2), tripleSet(d.Graphs[i])) {
			t.Fatalf("GtoPdb version %d round trip mismatch", i+1)
		}
	}
	// Overlap chains more entities (edited rows), so it needs at most as
	// many rows.
	if over.NumRows() > plain.NumRows() {
		t.Errorf("overlap archive rows %d exceed hybrid rows %d", over.NumRows(), plain.NumRows())
	}
}

// TestBuildOverlapWorkersDeterministic: an Overlap-method archive is
// bit-identical — entity numbering, rows, intervals — for every worker
// count (the matching scans and the propagation recoloring both fan out
// under Workers).
func TestBuildOverlapWorkersDeterministic(t *testing.T) {
	d, err := dataset.GenerateGtoPdb(dataset.GtoPdbConfig{Versions: 3, Scale: 0.002, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	base, err := build(d.Graphs, buildOpts{Align: overlapPair(1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		a, err := build(d.Graphs, buildOpts{Align: overlapPair(workers)})
		if err != nil {
			t.Fatal(err)
		}
		if a.NumEntities() != base.NumEntities() || a.NumRows() != base.NumRows() {
			t.Fatalf("workers=%d: entities/rows %d/%d, want %d/%d",
				workers, a.NumEntities(), a.NumRows(), base.NumEntities(), base.NumRows())
		}
		if !reflect.DeepEqual(a.Rows(), base.Rows()) {
			t.Fatalf("workers=%d: archive rows diverge from sequential build", workers)
		}
	}
}
