package rdf

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// randomPatchCase builds a random base graph plus a random valid edit
// (randomEditOf) and the post-edit label slice. Node count and edit
// density vary enough to hit empty edits, cleared subjects, P==O triples,
// self-loops and new nodes.
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
	labels, added, removed = randomEditOf(r, base)
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

// sameSlice is DeepEqual that treats nil and empty as equal (the overlay
// and rebuild paths legitimately differ there).
func sameSlice(a, b interface{}) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Len() == 0 && vb.Len() == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// requireSameView holds got to want through every per-node view: labels
// and label counts, NumTriples, EachTriple, and Out, OutDegree and
// Dependents of every node. Storage may differ (an overlay graph shares
// its base's columns), what the views return may not.
func requireSameView(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumTriples() != want.NumTriples() {
		t.Fatalf("%s: %d nodes, %d triples; want %d, %d", what,
			got.NumNodes(), got.NumTriples(), want.NumNodes(), want.NumTriples())
	}
	if got.blanks != want.blanks || got.lits != want.lits {
		t.Fatalf("%s: label counts differ: got (%d blanks, %d lits), want (%d, %d)",
			what, got.blanks, got.lits, want.blanks, want.lits)
	}
	var each []Triple
	got.EachTriple(func(tr Triple) bool {
		each = append(each, tr)
		return true
	})
	if !sameSlice(each, want.Triples()) {
		t.Fatalf("%s: EachTriple = %v\nwant %v", what, each, want.Triples())
	}
	for i := 0; i < want.NumNodes(); i++ {
		n := NodeID(i)
		if got.Label(n) != want.Label(n) {
			t.Fatalf("%s: label of node %d is %v, want %v", what, i, got.Label(n), want.Label(n))
		}
		if !sameSlice(got.Out(n), want.Out(n)) || got.OutDegree(n) != want.OutDegree(n) {
			t.Fatalf("%s: Out(%d) = %v, want %v", what, i, got.Out(n), want.Out(n))
		}
		if !sameSlice(got.Dependents(n), want.Dependents(n)) {
			t.Fatalf("%s: Dependents(%d) = %v, want %v", what, i, got.Dependents(n), want.Dependents(n))
		}
	}
}

// randomEditOf returns a random valid edit of g: a random subset of its
// triples removed, and random triples over g's nodes plus up to three new
// ones added, with the extended label slice.
func randomEditOf(r *rand.Rand, g *Graph) (labels []Label, added, removed []Triple) {
	ts := g.Triples()
	for _, t := range ts {
		if r.Intn(4) == 0 {
			removed = append(removed, t)
		}
	}
	n, extra := g.NumNodes(), r.Intn(4)
	labels = append(slices.Clone(g.labelsAll()), make([]Label, extra)...)
	for i := 0; i < extra; i++ {
		labels[n+i] = URILabel("http://new/" + strconv.Itoa(n+i))
	}
	present := make(map[Triple]bool, len(ts))
	for _, t := range ts {
		present[t] = true
	}
	addSet := make(map[Triple]struct{})
	for i := 0; i < r.Intn(3*n); i++ {
		t := Triple{S: NodeID(r.Intn(n + extra)), P: NodeID(r.Intn(n + extra)), O: NodeID(r.Intn(n + extra))}
		if !present[t] {
			addSet[t] = struct{}{}
		}
	}
	return labels, sortedTripleSet(addSet), removed
}

// requireFolded holds folded(g) to want column for column: the fold must
// be the very CSR a from-scratch freeze builds, and its dependents index
// the one want builds, carried when g carries one and lazy otherwise.
func requireFolded(t *testing.T, what string, g, want *Graph) {
	t.Helper()
	f := folded(g)
	if f.ov != nil || (f.depIndex != nil) != (g.depIndex != nil) {
		t.Fatalf("%s: fold kept an overlay (%v) or changed whether dependents are built (%v → %v)",
			what, f.ov != nil, g.depIndex != nil, f.depIndex != nil)
	}
	if !sameSlice(f.outIndex, want.outIndex) || !sameSlice(f.outEdges, want.outEdges) {
		t.Fatalf("%s: folded out-CSR %v %v\nwant %v %v", what, f.outIndex, f.outEdges, want.outIndex, want.outEdges)
	}
	if f.depIndex != nil {
		want.Dependents(0)
		if !sameSlice(f.depIndex, want.depIndex) || !sameSlice(f.depNodes, want.depNodes) {
			t.Fatalf("%s: folded dependents %v %v\nwant %v %v", what, f.depIndex, f.depNodes, want.depIndex, want.depNodes)
		}
	}
	requireSameView(t, what+" folded", f, want)
}

// TestOverlaidGraphMatchesRebuild forces the overlay path (small graphs
// would otherwise take patchedGraph's compaction) and checks every view of
// the result against a from-scratch freeze of the edited triple set, with
// the base's dependents lazy (they must stay lazy and build correctly on
// demand) and built (they must be carried, not rebuilt). A chain of
// further overlay edits on each result checks that version n+1's overlay,
// merged from version n's, stays exact, and that version n does not move.
// Every overlay version is also folded (requireFolded).
func TestOverlaidGraphMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		base, labels, added, removed := randomPatchCase(r)
		want := editedReference(base, labels, added, removed)
		what := "seed " + strconv.FormatInt(seed, 10)

		got := overlaidGraph(base, "base", labels, added, removed, touchedSubjects(added, removed), true)
		if got.depIndex != nil || len(got.ov.dep.keys) > 0 {
			t.Fatalf("%s: dependents carried although base never built them", what)
		}
		requireFolded(t, what+" lazy", got, want)
		requireSameView(t, what+" lazy", got, want)

		base.Dependents(0)
		got2 := overlaidGraph(base, "base", labels, added, removed, touchedSubjects(added, removed), true)
		if got2.depIndex == nil {
			t.Fatalf("%s: dependents not carried although base built them", what)
		}
		requireSameView(t, what+" carried", got2, want)
		requireFolded(t, what+" carried", got2, want)

		// Chains: the lazy result has now built its own dependents, the
		// carried one carries base's with overlay runs.
		for _, cur := range []*Graph{got, got2} {
			var versions, wants []*Graph
			for step := 0; step < 4; step++ {
				labels, added, removed := randomEditOf(r, cur)
				next := overlaidGraph(cur, "base", labels, added, removed, touchedSubjects(added, removed), true)
				ref := editedReference(cur, labels, added, removed)
				requireSameView(t, what+" chained", next, ref)
				requireFolded(t, what+" chained", next, ref)
				versions, wants = append(versions, next), append(wants, ref)
				cur = next
			}
			for i, v := range versions {
				requireSameView(t, what+" chained, after the chain", v, wants[i])
			}
		}
		requireSameView(t, what+" lazy, after its chain", got, want)
		requireSameView(t, what+" carried, after its chain", got2, want)
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

// BenchmarkPatchDensity times the three edit paths of patchedGraph — the
// overlay, the overlay then folded, and the rebuild — on one base graph
// (60k nodes, 200k triples, dependents built) at rising churn, so the cost
// patchDenseFactor bounds is measured rather than guessed. Every path ends
// with the dependents built, as a maintained session's next refinement
// needs them: the overlay and the fold carry the base's, the rebuild
// rebuilds them. Run it with:
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
		}{{"overlay", func(old *Graph, name string, labels []Label, added, removed []Triple) *Graph {
			return overlaidGraph(old, name, labels, added, removed, touchedSubjects(added, removed), true)
		}}, {"fold", func(old *Graph, name string, labels []Label, added, removed []Triple) *Graph {
			return folded(overlaidGraph(old, name, labels, added, removed, touchedSubjects(added, removed), true))
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
