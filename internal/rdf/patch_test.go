package rdf

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// randomPatchCase builds a random base graph plus a random valid edit
// (sorted added/removed lists satisfying mergeEdits' preconditions) and the
// post-edit label slice. Node count and edit density vary enough to hit
// empty edits, cleared subjects, P==O triples, self-loops and new nodes.
func randomPatchCase(r *rand.Rand) (base *Graph, labels []Label, added, removed []Triple) {
	n := 2 + r.Intn(40)
	baseLabels := make([]Label, n)
	for i := range baseLabels {
		switch r.Intn(6) {
		case 0:
			baseLabels[i] = BlankLabel()
		case 1:
			baseLabels[i] = LiteralLabel("lit" + string(rune('a'+i%26)))
		default:
			baseLabels[i] = URILabel("http://n/" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		}
	}
	var triples []Triple
	for i := 0; i < r.Intn(4*n); i++ {
		t := Triple{
			S: NodeID(r.Intn(n)),
			P: NodeID(r.Intn(n)),
			O: NodeID(r.Intn(n)),
		}
		if r.Intn(8) == 0 {
			t.O = t.P // predicate-as-object
		}
		if r.Intn(8) == 0 {
			t.O = t.S // self-loop
		}
		triples = append(triples, t)
	}
	base = freeze("base", baseLabels, triples)

	// removed: a random subset of base's (already sorted, unique) triples.
	for _, t := range base.Triples() {
		if r.Intn(4) == 0 {
			removed = append(removed, t)
		}
	}
	// labels: base's plus a few appended nodes the edit may reference.
	extra := r.Intn(4)
	labels = append(append([]Label(nil), baseLabels...), make([]Label, extra)...)
	for i := 0; i < extra; i++ {
		labels[n+i] = URILabel("http://new/" + string(rune('a'+i)))
	}
	// added: random triples over the extended node range, minus anything
	// already in base (added must be disjoint from base, and removed ⊆ base
	// keeps it disjoint from removed too).
	inBase := make(map[Triple]struct{}, base.NumTriples())
	for _, t := range base.Triples() {
		inBase[t] = struct{}{}
	}
	addSet := make(map[Triple]struct{})
	for i := 0; i < r.Intn(3*n); i++ {
		t := Triple{
			S: NodeID(r.Intn(n + extra)),
			P: NodeID(r.Intn(n + extra)),
			O: NodeID(r.Intn(n + extra)),
		}
		if _, ok := inBase[t]; ok {
			continue
		}
		addSet[t] = struct{}{}
	}
	added = sortedTripleSet(addSet)
	return base, labels, added, removed
}

// editedReference computes the post-edit graph from first principles: a
// triple set rebuilt with map semantics and frozen from scratch.
func editedReference(base *Graph, labels []Label, added, removed []Triple) *Graph {
	set := make(map[Triple]struct{}, base.NumTriples())
	for _, t := range base.Triples() {
		set[t] = struct{}{}
	}
	for _, t := range removed {
		delete(set, t)
	}
	for _, t := range added {
		set[t] = struct{}{}
	}
	return freeze("base", labels, sortedTripleSet(set))
}

// sameSlice is DeepEqual that treats nil and empty as equal (the splice and
// rebuild paths legitimately differ there).
func sameSlice(a, b interface{}) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Len() == 0 && vb.Len() == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func requireSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumTriples() != want.NumTriples() {
		t.Fatalf("triple counts differ: got %d, want %d", got.NumTriples(), want.NumTriples())
	}
	if !sameSlice(got.Triples(), want.Triples()) {
		t.Fatalf("triples differ:\ngot  %v\nwant %v", got.Triples(), want.Triples())
	}
	if !reflect.DeepEqual(got.outIndex, want.outIndex) {
		t.Fatalf("outIndex differs:\ngot  %v\nwant %v", got.outIndex, want.outIndex)
	}
	if !sameSlice(got.outEdges, want.outEdges) {
		t.Fatalf("outEdges differs:\ngot  %v\nwant %v", got.outEdges, want.outEdges)
	}
	if got.blanks != want.blanks || got.lits != want.lits {
		t.Fatalf("label counts differ: got (%d blanks, %d lits), want (%d, %d)",
			got.blanks, got.lits, want.blanks, want.lits)
	}
}

// TestSplicedGraphMatchesRebuild forces the splice path (small graphs would
// otherwise take patchedGraph's dense fallback) and checks the result equals
// a from-scratch freeze of the edited triple set — including the spliced
// dependents index against a lazily built one.
func TestSplicedGraphMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		base, labels, added, removed := randomPatchCase(r)
		want := editedReference(base, labels, added, removed)

		// Splice without a prebuilt dependents index: it must stay lazy and
		// still build correctly on demand.
		got := splicedGraph(base, "base", labels, added, removed, touchedSubjects(added, removed))
		requireSameGraph(t, got, want)
		if got.depIndex != nil {
			t.Fatalf("seed %d: dependents spliced although base never built them", seed)
		}
		got.Dependents(0)
		want.Dependents(0)
		if !reflect.DeepEqual(got.depIndex, want.depIndex) || !sameSlice(got.depNodes, want.depNodes) {
			t.Fatalf("seed %d: lazily built dependents differ", seed)
		}

		// Splice with the base index built: the patched index must equal the
		// from-scratch build without being rebuilt.
		base.Dependents(0)
		got2 := splicedGraph(base, "base", labels, added, removed, touchedSubjects(added, removed))
		requireSameGraph(t, got2, want)
		if got2.depIndex == nil {
			t.Fatalf("seed %d: dependents not spliced although base built them", seed)
		}
		if !reflect.DeepEqual(got2.depIndex, want.depIndex) || !sameSlice(got2.depNodes, want.depNodes) {
			t.Fatalf("seed %d: spliced dependents differ:\ngot  idx %v nodes %v\nwant idx %v nodes %v",
				seed, got2.depIndex, got2.depNodes, want.depIndex, want.depNodes)
		}
	}
}

// TestMergeEditsMatchesSetSemantics pins the block-copy mergeEdits to the
// map-based reference.
func TestMergeEditsMatchesSetSemantics(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed + 1000))
		base, _, added, removed := randomPatchCase(r)
		set := make(map[Triple]struct{}, base.NumTriples())
		for _, tr := range base.Triples() {
			set[tr] = struct{}{}
		}
		for _, tr := range removed {
			delete(set, tr)
		}
		for _, tr := range added {
			set[tr] = struct{}{}
		}
		want := sortedTripleSet(set)
		got := mergeEdits(base.Triples(), added, removed)
		if !sameSlice(got, want) {
			t.Fatalf("seed %d: mergeEdits mismatch:\ngot  %v\nwant %v", seed, got, want)
		}
	}
}

// patchSink keeps the benchmarked edit paths live.
var patchSink []NodeID

// BenchmarkPatchDensity times the two edit paths of patchedGraph — the
// splice and the dense rebuild — on one base graph (60k nodes, 200k
// triples, dependents built) at rising churn, so the crossover that
// patchDenseFactor encodes is measured rather than guessed. Both paths end
// with the dependents built, as a maintained session's next refinement
// needs them. Run it with:
//
//	go test -run '^$' -bench PatchDensity -benchmem ./internal/rdf
func BenchmarkPatchDensity(b *testing.B) {
	const nodes, edges = 60_000, 200_000
	r := rand.New(rand.NewSource(1))
	labels := make([]Label, nodes)
	for i := range labels {
		labels[i] = URILabel("http://n/" + strconv.Itoa(i))
	}
	triples := make([]Triple, edges)
	for i := range triples {
		triples[i] = Triple{S: NodeID(r.Intn(nodes)), P: NodeID(r.Intn(64)), O: NodeID(r.Intn(nodes))}
	}
	base := freeze("base", labels, triples)
	base.Dependents(0)
	baseTriples := base.Triples()
	inBase := make(map[Triple]bool, len(baseTriples))
	for _, t := range baseTriples {
		inBase[t] = true
	}
	for _, churn := range []struct {
		name string
		frac float64
	}{{"0.1%", 0.001}, {"2%", 0.02}, {"4%", 0.04}, {"7%", 0.07}, {"15%", 0.15}, {"30%", 0.30}} {
		k := int(churn.frac * float64(len(baseTriples)))
		picked := r.Perm(len(baseTriples))[:k/2]
		slices.Sort(picked)
		removed := make([]Triple, len(picked))
		for i, j := range picked {
			removed[i] = baseTriples[j]
		}
		addSet := make(map[Triple]struct{})
		for len(addSet) < k-k/2 {
			t := Triple{S: NodeID(r.Intn(nodes)), P: NodeID(r.Intn(64)), O: NodeID(r.Intn(nodes))}
			if !inBase[t] {
				addSet[t] = struct{}{}
			}
		}
		added := sortedTripleSet(addSet)
		for _, path := range []struct {
			name string
			fn   func(*Graph, string, []Label, []Triple, []Triple) *Graph
		}{{"splice", func(old *Graph, name string, labels []Label, added, removed []Triple) *Graph {
			return splicedGraph(old, name, labels, added, removed, touchedSubjects(added, removed))
		}}, {"rebuild", rebuiltGraph}} {
			b.Run("churn="+churn.name+"/"+path.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					patchSink = path.fn(base, "edited", labels, added, removed).Dependents(0)
				}
			})
		}
	}
}
