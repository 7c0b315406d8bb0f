package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

// contextGraph builds a graph with two blank nodes of identical contents
// but different contexts: both carry (q, "a"), but one is reached via p
// from w and the other via r from x.
func contextGraph(t testing.TB) *rdf.Graph {
	t.Helper()
	b := rdf.NewBuilder("ctx")
	w := b.URI("w")
	x := b.URI("x")
	b1 := b.Blank("b1")
	b2 := b.Blank("b2")
	la := b.Literal("a")
	q := b.URI("q")
	b.TripleURI(w, "p", b1)
	b.TripleURI(x, "r", b2)
	b.Triple(b1, q, la)
	b.Triple(b2, q, la)
	return b.MustGraph()
}

func TestDirectionSplitsByContext(t *testing.T) {
	g := contextGraph(t)
	b1, b2 := findBlanks2(t, g)

	in := NewInterner()
	outP, _, _ := (&Engine{Opt: RefineOptions{Direction: DirOut}}).Deblank(g, in)
	if !outP.SameClass(b1, b2) {
		t.Error("DirOut: identical contents should be bisimilar")
	}
	bothP, _, _ := (&Engine{Opt: RefineOptions{Direction: DirBoth}}).Deblank(g, NewInterner())
	if bothP.SameClass(b1, b2) {
		t.Error("DirBoth: different contexts (p from w vs r from x) should split the blanks")
	}
	inP, _, _ := (&Engine{Opt: RefineOptions{Direction: DirIn}}).Deblank(g, NewInterner())
	if inP.SameClass(b1, b2) {
		t.Error("DirIn: different contexts should split the blanks")
	}
}

func findBlanks2(t testing.TB, g *rdf.Graph) (rdf.NodeID, rdf.NodeID) {
	t.Helper()
	var blanks []rdf.NodeID
	g.Nodes(func(n rdf.NodeID) {
		if g.IsBlank(n) {
			blanks = append(blanks, n)
		}
	})
	if len(blanks) != 2 {
		t.Fatalf("want 2 blanks, got %d", len(blanks))
	}
	return blanks[0], blanks[1]
}

func TestDirOutMatchesDefaultEngine(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "dirout", 2+r.Intn(4), r.Intn(5), r.Intn(3), r.Intn(16))
		p1, _, _ := (&Engine{}).Deblank(g, NewInterner())
		p2, _, _ := (&Engine{Opt: RefineOptions{Direction: DirOut}}).Deblank(g, NewInterner())
		return Equivalent(p1, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDirBothFinerThanDirOut: forward-backward bisimulation refines forward
// bisimulation.
func TestDirBothFinerThanDirOut(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "finer", 2+r.Intn(4), r.Intn(5), r.Intn(3), r.Intn(16))
		in := NewInterner()
		all := make([]rdf.NodeID, g.NumNodes())
		for i := range all {
			all[i] = rdf.NodeID(i)
		}
		outP, _, _ := (&Engine{Opt: RefineOptions{Direction: DirOut}}).Refine(g, LabelPartition(g, in), all)
		bothP, _, _ := (&Engine{Opt: RefineOptions{Direction: DirBoth}}).Refine(g, LabelPartition(g, in), all)
		return Finer(bothP, outP)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPredicateKeyFilter(t *testing.T) {
	// Two blanks share the key predicate value but differ on a non-key
	// annotation; filtering to the key aligns them.
	b := rdf.NewBuilder("keys")
	w := b.URI("w")
	b1 := b.Blank("b1")
	b2 := b.Blank("b2")
	key := b.URI("key")
	note := b.URI("note")
	b.TripleURI(w, "p", b1)
	b.TripleURI(w, "p", b2)
	b.Triple(b1, key, b.Literal("K-42"))
	b.Triple(b2, key, b.Literal("K-42"))
	b.Triple(b1, note, b.Literal("first annotation"))
	b.Triple(b2, note, b.Literal("second annotation"))
	g := b.MustGraph()
	n1, n2 := findBlanks2(t, g)

	plain, _, _ := (&Engine{}).Deblank(g, NewInterner())
	if plain.SameClass(n1, n2) {
		t.Fatal("without a key filter the differing annotations must split the blanks")
	}
	keyed, _, _ := (&Engine{Opt: RefineOptions{
		Direction: DirOut,
		Filter:    PredicateKeyFilter("key"),
	}}).Deblank(g, NewInterner())
	if !keyed.SameClass(n1, n2) {
		t.Error("with the key filter the blanks should align on their key value")
	}
}

func TestHybridContextOption(t *testing.T) {
	// Combined version of the context graph: with DirBoth, the hybrid
	// alignment distinguishes same-content nodes by how they are reached.
	g1 := contextGraph(t)
	g2 := contextGraph(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	p, iters, _ := (&Engine{Opt: RefineOptions{Direction: DirBoth}}).Hybrid(c, in)
	if iters <= 0 {
		t.Error("expected some refinement iterations")
	}
	// b1 (reached via p) aligns across versions, b2 (via r) likewise,
	// but b1 and b2 stay apart.
	b11, b12 := findBlanks2(t, g1)
	b21, b22 := findBlanks2(t, g2)
	pair := func(a, b rdf.NodeID) bool {
		return p.Color(c.FromSource(a)) == p.Color(c.FromTarget(b))
	}
	if !pair(b11, b21) || !pair(b12, b22) {
		t.Error("context-aware hybrid should align corresponding blanks across versions")
	}
	if pair(b11, b22) || pair(b12, b21) {
		t.Error("context-aware hybrid must keep differently-reached blanks apart")
	}
}

// adaptiveGraph builds a pair of versions shaped like the GtoPdb exports:
// no shared URIs, predicates that never occur as subject or object, and
// class URIs that occur only as objects of type triples.
func adaptiveVersion(t testing.TB, prefix string) *rdf.Graph {
	t.Helper()
	b := rdf.NewBuilder(prefix)
	typeP := b.URI(prefix + "type")
	nameP := b.URI(prefix + "name")
	yearP := b.URI(prefix + "year")
	cls := b.URI(prefix + "Ligand")
	row1 := b.URI(prefix + "row1")
	row2 := b.URI(prefix + "row2")
	b.Triple(row1, typeP, cls)
	b.Triple(row2, typeP, cls)
	b.Triple(row1, nameP, b.Literal("calcitonin"))
	b.Triple(row2, nameP, b.Literal("adrenaline"))
	b.Triple(row1, yearP, b.Literal("1985"))
	b.Triple(row2, yearP, b.Literal("1992"))
	return b.MustGraph()
}

// TestAdaptiveSplitsPredicates verifies §5.1's suggested fix: with plain
// hybrid all predicate-only URIs collapse into one cluster; with Adaptive
// each predicate is characterised by the subject/object colors of its
// triples and aligns one-to-one across versions.
func TestAdaptiveSplitsPredicates(t *testing.T) {
	g1 := adaptiveVersion(t, "http://a/")
	g2 := adaptiveVersion(t, "http://b/")
	c := rdf.Union(g1, g2)

	plain, _, _ := (&Engine{}).Hybrid(c, NewInterner())
	name1 := c.FromSource(mustURI(t, g1, "http://a/name"))
	year1 := c.FromSource(mustURI(t, g1, "http://a/year"))
	name2 := c.FromTarget(mustURI(t, g2, "http://b/name"))
	year2 := c.FromTarget(mustURI(t, g2, "http://b/year"))
	if !plain.SameClass(name1, year2) {
		t.Fatal("plain hybrid should lump all sink predicates (the §5.1 error)")
	}

	adaptive, _, _ := (&Engine{Opt: RefineOptions{Adaptive: true}}).Hybrid(c, NewInterner())
	if !adaptive.SameClass(name1, name2) {
		t.Error("adaptive should align the name predicates across versions")
	}
	if !adaptive.SameClass(year1, year2) {
		t.Error("adaptive should align the year predicates across versions")
	}
	if adaptive.SameClass(name1, year2) || adaptive.SameClass(year1, name2) {
		t.Error("adaptive must separate name from year predicates")
	}
	// Class URIs (objects of type triples) fall back to context and
	// still align across versions.
	cls1 := c.FromSource(mustURI(t, g1, "http://a/Ligand"))
	cls2 := c.FromTarget(mustURI(t, g2, "http://b/Ligand"))
	if !adaptive.SameClass(cls1, cls2) {
		t.Error("adaptive should align the class URIs via their context")
	}
	if adaptive.SameClass(cls1, name2) {
		t.Error("adaptive must separate class URIs from predicates")
	}
	// Rows still align by contents.
	r1 := c.FromSource(mustURI(t, g1, "http://a/row1"))
	r2 := c.FromTarget(mustURI(t, g2, "http://b/row1"))
	if !adaptive.SameClass(r1, r2) {
		t.Error("adaptive should keep aligning rows by contents")
	}
}

// TestAdaptiveMatchesPlainOnContentNodes: for nodes with outgoing edges the
// adaptive variant behaves exactly like the paper's refinement.
func TestAdaptiveMatchesPlainOnContentNodes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "adapt", 2+r.Intn(4), r.Intn(5), r.Intn(3), r.Intn(16))
		// Restrict to graphs where every blank has contents, so the
		// adaptive fallback never fires during deblanking.
		allHaveOut := true
		g.Nodes(func(n rdf.NodeID) {
			if g.IsBlank(n) && g.OutDegree(n) == 0 {
				allHaveOut = false
			}
		})
		if !allHaveOut {
			return true // vacuous
		}
		p1, _, _ := (&Engine{}).Deblank(g, NewInterner())
		p2, _, _ := (&Engine{Opt: RefineOptions{Adaptive: true}}).Deblank(g, NewInterner())
		return Equivalent(p1, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDirectionString(t *testing.T) {
	if DirOut.String() != "out" || DirIn.String() != "in" || DirBoth.String() != "both" {
		t.Error("Direction names")
	}
	if Direction(9).String() == "" {
		t.Error("unknown Direction should render")
	}
}

// TestExtendedGatherDistinctFromPlain: the one pair set an extended
// recoloring interns never aliases a plain composite, keeps out-, in- and
// occurrence pairs apart, and collapses when it repeats.
func TestExtendedGatherDistinctFromPlain(t *testing.T) {
	b := rdf.NewBuilder("gather")
	k := b.URI("k")
	pred := b.URI("p")
	out := b.Blank("out") // out --p--> k, no in-edges
	in := b.Blank("in")   // k --p--> in, no out-edges
	b.Triple(out, pred, k)
	b.Triple(k, pred, in)
	g := mustGraph(t, b)
	p := LabelPartition(g, NewInterner())
	both := RefineOptions{Direction: DirBoth}

	cOut, scratch := recolorOpts(g, p, out, both, nil)
	plain := p.in.Composite(p.colors[out], []ColorPair{{p.colors[pred], p.colors[k]}})
	if cOut == plain {
		t.Error("DirBoth on a node without in-edges must not alias the plain composite of its out-pairs")
	}
	cIn, scratch := recolorOpts(g, p, in, both, scratch)
	if p.colors[in] != p.colors[out] {
		t.Fatal("the two blanks should start in one class")
	}
	if cIn == cOut {
		t.Error("swapping a node's in- and out-neighbourhood must change its color")
	}
	// The predicate p has no contents: Adaptive characterises it by its
	// occurrences (out, k) and (k, in), which must not read as edges.
	cOcc, scratch := recolorOpts(g, p, pred, RefineOptions{Adaptive: true}, scratch)
	if _, pairs, _ := p.in.IsComposite(cOcc); len(pairs) != 3 {
		t.Errorf("occurrence signature holds %v, want two occurrences and the marker", pairs)
	}
	if cOcc == p.in.Composite(p.colors[pred], []ColorPair{{p.colors[out], p.colors[k]}, {p.colors[k], p.colors[in]}}) {
		t.Error("predicate occurrences must not alias out-pairs")
	}
	// Recoloring a node whose pair set is unchanged returns its color.
	q := p.Clone()
	q.colors[out] = cOut
	size := p.in.Size()
	if again, _ := recolorOpts(g, q, out, both, scratch); again != cOut || p.in.Size() != size {
		t.Errorf("repeated extended signature recolored to %d (interner grew by %d), want the stable %d", again, p.in.Size()-size, cOut)
	}
}

func TestInAdjacency(t *testing.T) {
	g := contextGraph(t)
	total := 0
	g.Nodes(func(n rdf.NodeID) {
		in := g.In(n)
		if len(in) != g.InDegree(n) {
			t.Fatalf("node %d: len(In) = %d, InDegree = %d", n, len(in), g.InDegree(n))
		}
		total += len(in)
		for i := 1; i < len(in); i++ {
			if in[i-1].P > in[i].P || (in[i-1].P == in[i].P && in[i-1].O > in[i].O) {
				t.Fatalf("node %d: in edges not sorted", n)
			}
		}
		for _, e := range in {
			// Every in-edge corresponds to a real triple (e.O, e.P, n).
			found := false
			for _, oe := range g.Out(e.O) {
				if oe.P == e.P && oe.O == n {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d: phantom in-edge %v", n, e)
			}
		}
	})
	if total != g.NumTriples() {
		t.Errorf("sum of in-degrees = %d, want %d", total, g.NumTriples())
	}
}
