package rdf

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// sortedFreeze is the comparison-sort freeze that the counting sort
// replaced, kept as the reference: sort the triples by (S, P, O), drop
// repeats, lay out the CSR.
func sortedFreeze(name string, labels []Label, triples []Triple) *Graph {
	slices.SortFunc(triples, func(a, b Triple) int {
		if c := cmp.Compare(a.S, b.S); c != 0 {
			return c
		}
		if c := cmp.Compare(a.P, b.P); c != 0 {
			return c
		}
		return cmp.Compare(a.O, b.O)
	})
	dedup := triples[:0]
	var prev Triple
	for i, t := range triples {
		if i > 0 && t == prev {
			continue
		}
		dedup = append(dedup, t)
		prev = t
	}
	g := &Graph{name: name, nnodes: len(labels), labels: labels}
	g.outIndex = make([]int32, len(labels)+1)
	for _, t := range dedup {
		g.outIndex[t.S+1]++
	}
	for i := 1; i <= len(labels); i++ {
		g.outIndex[i] += g.outIndex[i-1]
	}
	g.outEdges = make([]Edge, len(dedup))
	for i, t := range dedup {
		g.outEdges[i] = Edge{P: t.P, O: t.O}
	}
	return g
}

// TestFreezeMatchesSortedReference holds freeze's out-CSR to the
// comparison-sort reference, column for column, on random triple lists
// with repeats, self-loops, predicate-as-object triples, subjects in any
// order, isolated nodes and runs long enough for the library sort, handed
// over in random chunks.
func TestFreezeMatchesSortedReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		labels := make([]Label, n)
		for i := range labels {
			labels[i] = URILabel("http://n/" + strconv.Itoa(i))
		}
		// Subjects come from the lower half only, so the upper half is
		// isolated or object-only; one subject in eight gets a long run.
		var triples []Triple
		for i := 0; i < r.Intn(6*n); i++ {
			tr := Triple{S: NodeID(r.Intn((n + 1) / 2)), P: NodeID(r.Intn(n)), O: NodeID(r.Intn(n))}
			switch r.Intn(8) {
			case 0:
				tr.O = tr.S
			case 1:
				tr.O = tr.P
			case 2:
				if len(triples) > 0 {
					tr = triples[r.Intn(len(triples))]
				}
			case 3:
				for j := 0; j < 40; j++ {
					triples = append(triples, Triple{S: tr.S, P: NodeID(r.Intn(n)), O: NodeID(r.Intn(n))})
				}
			}
			triples = append(triples, tr)
		}
		r.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
		want := sortedFreeze("ref", labels, slices.Clone(triples))
		// Hand the list over in random chunks, as a parallel parse does.
		var chunks [][]Triple
		for rest := triples; len(rest) > 0; {
			k := 1 + r.Intn(len(rest))
			chunks, rest = append(chunks, rest[:k]), rest[k:]
		}
		got := freeze("ref", labels, chunks...)
		if !slices.Equal(got.outIndex, want.outIndex) || !slices.Equal(got.outEdges, want.outEdges) {
			t.Fatalf("seed %d: out-CSR\n%v %v\nwant\n%v %v", seed, got.outIndex, got.outEdges, want.outIndex, want.outEdges)
		}
	}
}

// TestApplyLeavesDependentsLazy pins which edits carry a dependents index.
// The edited graph's base has its index built, as every Align operand's
// is. Editor.Apply results carry none — no dependents overlay, a lazy
// index that still builds correctly — while the union RebaseUnion makes
// from a union whose index is built carries it with overlay runs.
func TestApplyLeavesDependentsLazy(t *testing.T) {
	checked := map[bool]int{} // Apply results keyed by "reads through an overlay"
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		what := "seed " + strconv.FormatInt(seed, 10)
		src := randomEditGraph(r, "src")
		base := wideEditGraph(r, 60+r.Intn(200))
		c := Union(src, base)
		c.Dependents(0)
		if base.depIndex == nil {
			t.Fatalf("%s: the union's Dependents left its operand's index lazy", what)
		}

		// A few deletes, or on every third seed a quarter of the triples
		// (dense enough to compact), and one insert with a new subject.
		share := 40
		if seed%3 == 0 {
			share = 4
		}
		var ops []EditOp
		for _, tr := range base.Triples() {
			if r.Intn(share) == 0 {
				ops = append(ops, EditOp{T: TermTriple{S: termOf(base, tr.S), P: termOf(base, tr.P), O: termOf(base, tr.O)}})
			}
		}
		ops = append(ops, EditOp{Insert: true, T: TermTriple{
			S: Term{Kind: URI, Value: "http://e/new"},
			P: Term{Kind: URI, Value: "http://e/p0"},
			O: termOf(base, NodeID(r.Intn(base.NumNodes()))),
		}})
		res, err := NewEditor(base).Apply(ops)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		g := res.Graph
		if g.depIndex != nil || (g.ov != nil && len(g.ov.dep.keys) > 0) {
			t.Fatalf("%s: Editor.Apply carried its base's dependents (overlay %v)", what, g.ov != nil)
		}
		checked[g.ov != nil]++
		requireSameView(t, what+" Apply", g, Rebuilt(g))

		// The union's edit is the same, against a larger graph: unless it
		// is dense by itself (rebuilt, lazy), the result carries the
		// union's index, with the runs of the new subject's P and O.
		rc := RebaseUnion(c, res)
		churn := len(res.Added) + len(res.Removed)
		if patchDenseFactor*churn < c.NumTriples()+len(res.Added) {
			if rc.depIndex == nil {
				t.Fatalf("%s: RebaseUnion dropped the union's dependents", what)
			}
			if rc.ov != nil && len(rc.ov.dep.keys) == 0 {
				t.Fatalf("%s: RebaseUnion carried no dependents overlay runs", what)
			}
		}
		requireSameView(t, what+" RebaseUnion", rc.Graph, Rebuilt(rc.Graph))
	}
	if checked[true] == 0 || checked[false] == 0 {
		t.Fatalf("Apply made %d overlay and %d compacted graphs; want both", checked[true], checked[false])
	}
}

// wideEditGraph builds a random graph of about the given number of
// triples over many URI subjects, few predicates and some literals, so
// that a handful of edits stays below the overlay's dense rule.
func wideEditGraph(r *rand.Rand, triples int) *Graph {
	b := NewBuilder("base")
	uri := func(prefix string, k int) NodeID { return b.URI("http://e/" + prefix + strconv.Itoa(k)) }
	for i := 0; i < triples; i++ {
		s, p := uri("u", r.Intn(triples/2)), uri("p", r.Intn(4))
		if r.Intn(4) == 0 {
			b.Triple(s, p, b.Literal("v"+strconv.Itoa(r.Intn(20))))
		} else {
			b.Triple(s, p, uri("u", r.Intn(triples/2)))
		}
	}
	return b.MustGraph()
}

// termOf is the script term naming node n of g (not for blank nodes).
func termOf(g *Graph, n NodeID) Term {
	l := g.Label(n)
	return Term{Kind: l.Kind, Value: l.Value}
}
