package archive

import (
	"math/rand"
	"testing"

	"rdfalign/internal/rdf"
)

// requireSortedRows asserts the row invariant the append merge-join relies
// on: rows strictly (S, P, O)-ascending, with well-formed intervals and
// label runs — exactly what FromRaw validates.
func requireSortedRows(t *testing.T, label string, a *Archive) {
	t.Helper()
	if _, err := FromRaw(a.Raw()); err != nil {
		t.Fatalf("%s: archive violates the raw invariants: %v", label, err)
	}
}

// TestArchiveRowsSortedAfterEveryOperation checks the sorted-rows invariant
// after every New, Append and Clone over random histories, with a
// clone and its original appending different versions.
func TestArchiveRowsSortedAfterEveryOperation(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		hist := randomHistory(r, 6)
		for _, opt := range []buildOpts{{Align: hybridPair}, {Align: overlapPair(1), ResolveAmbiguous: true}} {
			a, err := build(hist[:2], opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSortedRows(t, "build", a)
			b := a.Clone()
			requireSortedRows(t, "clone", b)
			for v := 2; v < len(hist); v++ {
				if err := appendGraph(a, hist[v], opt); err != nil {
					t.Fatal(err)
				}
				requireSortedRows(t, "append", a)
				// The clone replays the history backwards.
				if err := appendGraph(b, hist[len(hist)+1-v], opt); err != nil {
					t.Fatal(err)
				}
				requireSortedRows(t, "clone append", b)
			}
		}
	}
}

// uriGraph builds a graph of URI-only triples.
func uriGraph(triples ...[3]string) *rdf.Graph {
	b := rdf.NewBuilder("g")
	for _, tr := range triples {
		b.Triple(b.URI(tr[0]), b.URI(tr[1]), b.URI(tr[2]))
	}
	return b.MustGraph()
}

// TestArchiveCloneDivergentAppends: a clone and its original each take a
// different run of three appends, in which a triple leaves and returns (so
// the return appends an interval to a list that Clone or the merge placed
// in a shared slab). Each archive must stay raw-identical to build over its
// own history, so neither slab append may leak into the other archive.
func TestArchiveCloneDivergentAppends(t *testing.T) {
	apb, bpc, aqc, cpa, cqa := [3]string{"a", "p", "b"}, [3]string{"b", "p", "c"},
		[3]string{"a", "q", "c"}, [3]string{"c", "p", "a"}, [3]string{"c", "q", "a"}
	v0 := uriGraph(apb, bpc, aqc)
	v1 := uriGraph(apb, bpc, aqc, cpa)
	v2 := uriGraph(apb, bpc, cpa, cqa)
	base := []*rdf.Graph{v0, v1, v2}
	// The original: aqc leaves at v2 and returns at v3.
	runA := []*rdf.Graph{v0, v1, uriGraph(apb, bpc, cpa)}
	// The clone: apb leaves at v3 and returns at v4.
	runB := []*rdf.Graph{uriGraph(bpc, cpa, cqa, aqc), v2, v1}

	opt := buildOpts{Align: hybridPair}
	a, err := build(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	for i := range runA {
		if err := appendGraph(a, runA[i], opt); err != nil {
			t.Fatal(err)
		}
		if err := appendGraph(b, runB[i], opt); err != nil {
			t.Fatal(err)
		}
		requireSortedRows(t, "original", a)
		requireSortedRows(t, "clone", b)
	}
	for _, tc := range []struct {
		name string
		got  *Archive
		hist []*rdf.Graph
		gap  [3]string // the triple that left and returned
	}{
		{"original", a, append(append([]*rdf.Graph(nil), base...), runA...), aqc},
		{"clone", b, append(append([]*rdf.Graph(nil), base...), runB...), apb},
	} {
		want, err := build(tc.hist, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameArchive(t, tc.name, tc.got, want)
		gapped := false
		for _, row := range tc.got.Rows() {
			s, _ := tc.got.LabelAt(row.S, 0)
			p, _ := tc.got.LabelAt(row.P, 0)
			o, _ := tc.got.LabelAt(row.O, 0)
			if [3]string{s.Value, p.Value, o.Value} == tc.gap {
				gapped = len(row.Intervals) == 2
			}
		}
		if !gapped {
			t.Fatalf("%s: triple %v does not have two intervals", tc.name, tc.gap)
		}
	}
}
