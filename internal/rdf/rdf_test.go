package rdf

import (
	"strings"
	"testing"
)

// figure2 builds the RDF graph of the paper's Figure 2:
//
//	w -p-> b1, w -q-> u, w -p-> b2(? see below)
//
// Exact triples (reading the figure): w has edges p->b1, q->b2(?); the
// figure is reproduced here from its textual description: nodes w, u, b1,
// b2, b3, "a", "b" with b2 and b3 bisimilar. We encode:
//
//	(w, p, b1) (w, p, b2) (w, q, b3)
//	(b1, q, u) (b1, r, b3) (b1, q, "b")
//	(b2, r, u) (b2, q, "a")
//	(b3, r, u) (b3, q, "a")
//
// which makes b2 and b3 bisimilar (identical outbound structure) while b1
// differs. The bisim package asserts exactly that.
func figure2(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder("fig2")
	w := b.URI("w")
	u := b.URI("u")
	p := b.URI("p")
	q := b.URI("q")
	r := b.URI("r")
	b1 := b.Blank("b1")
	b2 := b.Blank("b2")
	b3 := b.Blank("b3")
	la := b.Literal("a")
	lb := b.Literal("b")
	b.Triple(w, p, b1)
	b.Triple(w, p, b2)
	b.Triple(w, q, b3)
	b.Triple(b1, q, u)
	b.Triple(b1, r, b3)
	b.Triple(b1, q, lb)
	b.Triple(b2, r, u)
	b.Triple(b2, q, la)
	b.Triple(b3, r, u)
	b.Triple(b3, q, la)
	g, err := b.Graph()
	if err != nil {
		t.Fatalf("figure2: %v", err)
	}
	return g
}

func TestBuilderCounts(t *testing.T) {
	g := figure2(t)
	if got, want := g.NumNodes(), 10; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
	if got, want := g.NumURIs(), 5; got != want {
		t.Errorf("NumURIs = %d, want %d", got, want)
	}
	if got, want := g.NumBlanks(), 3; got != want {
		t.Errorf("NumBlanks = %d, want %d", got, want)
	}
	if got, want := g.NumLiterals(), 2; got != want {
		t.Errorf("NumLiterals = %d, want %d", got, want)
	}
	if got, want := g.NumTriples(), 10; got != want {
		t.Errorf("NumTriples = %d, want %d", got, want)
	}
}

func TestBuilderGetOrCreate(t *testing.T) {
	b := NewBuilder("t")
	if b.URI("x") != b.URI("x") {
		t.Error("URI get-or-create returned distinct nodes for the same URI")
	}
	if b.Literal("v") != b.Literal("v") {
		t.Error("Literal get-or-create returned distinct nodes for the same value")
	}
	if b.Blank("n") != b.Blank("n") {
		t.Error("Blank returned distinct nodes for the same local name")
	}
	if b.Blank("n") == b.Blank("m") {
		t.Error("Blank returned the same node for distinct local names")
	}
	if b.FreshBlank() == b.FreshBlank() {
		t.Error("FreshBlank returned the same node twice")
	}
	if b.URI("v") == b.Literal("v") {
		t.Error("URI and Literal with equal text must be distinct nodes")
	}
}

func TestTripleDeduplication(t *testing.T) {
	b := NewBuilder("dup")
	s := b.URI("s")
	p := b.URI("p")
	o := b.URI("o")
	b.Triple(s, p, o)
	b.Triple(s, p, o)
	b.Triple(s, p, o)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 1 {
		t.Errorf("NumTriples = %d after inserting one triple thrice, want 1", g.NumTriples())
	}
}

func TestOutAdjacencySorted(t *testing.T) {
	g := figure2(t)
	g.Nodes(func(n NodeID) {
		out := g.Out(n)
		if len(out) != g.OutDegree(n) {
			t.Fatalf("node %d: len(Out) = %d, OutDegree = %d", n, len(out), g.OutDegree(n))
		}
		for i := 1; i < len(out); i++ {
			a, b := out[i-1], out[i]
			if a.P > b.P || (a.P == b.P && a.O >= b.O) {
				t.Fatalf("node %d: out edges not strictly sorted: %v then %v", n, a, b)
			}
		}
	})
}

func TestOutDegreeTotals(t *testing.T) {
	g := figure2(t)
	total := 0
	g.Nodes(func(n NodeID) { total += g.OutDegree(n) })
	if total != g.NumTriples() {
		t.Errorf("sum of out degrees = %d, want %d", total, g.NumTriples())
	}
}

func TestValidateRejectsLiteralSubject(t *testing.T) {
	b := NewBuilder("bad")
	s := b.Literal("oops")
	p := b.URI("p")
	o := b.URI("o")
	b.Triple(s, p, o)
	if _, err := b.Graph(); err == nil {
		t.Error("Graph() accepted a literal in subject position")
	}
}

func TestValidateRejectsLiteralPredicate(t *testing.T) {
	b := NewBuilder("bad")
	s := b.URI("s")
	p := b.Literal("p")
	o := b.URI("o")
	b.Triple(s, p, o)
	if _, err := b.Graph(); err == nil {
		t.Error("Graph() accepted a literal in predicate position")
	}
}

func TestValidateRejectsBlankPredicate(t *testing.T) {
	b := NewBuilder("bad")
	s := b.URI("s")
	p := b.Blank("p")
	o := b.URI("o")
	b.Triple(s, p, o)
	if _, err := b.Graph(); err == nil {
		t.Error("Graph() accepted a blank node in predicate position")
	}
}

func TestBlankObjectAndSubjectAllowed(t *testing.T) {
	b := NewBuilder("ok")
	s := b.Blank("x")
	p := b.URI("p")
	o := b.Blank("y")
	b.Triple(s, p, o)
	if _, err := b.Graph(); err != nil {
		t.Errorf("Graph() rejected blank subject/object: %v", err)
	}
}

func TestUnionDisjointness(t *testing.T) {
	g1 := figure2(t)
	g2 := figure2(t)
	c := Union(g1, g2)
	if c.NumNodes() != g1.NumNodes()+g2.NumNodes() {
		t.Fatalf("union nodes = %d, want %d", c.NumNodes(), g1.NumNodes()+g2.NumNodes())
	}
	if c.NumTriples() != g1.NumTriples()+g2.NumTriples() {
		t.Fatalf("union triples = %d, want %d", c.NumTriples(), g1.NumTriples()+g2.NumTriples())
	}
	// Same URI on both sides stays two distinct nodes.
	n1, ok1 := g1.FindURI("w")
	n2, ok2 := g2.FindURI("w")
	if !ok1 || !ok2 {
		t.Fatal("FindURI(w) failed")
	}
	cn1 := c.FromSource(n1)
	cn2 := c.FromTarget(n2)
	if cn1 == cn2 {
		t.Error("union merged equal-labelled nodes from the two sides")
	}
	if c.SideOf(cn1) != Source || c.SideOf(cn2) != Target {
		t.Error("SideOf misreports union sides")
	}
	if c.ToTarget(cn2) != n2 {
		t.Error("ToTarget(FromTarget(n)) != n")
	}
	if c.Label(cn1) != c.Label(cn2) {
		t.Error("labels should be preserved across the union")
	}
}

// TestUnionDistinctLabels: a graph expects its own URI and literal counts,
// a union its source operand's, since target labels mostly repeat them.
func TestUnionDistinctLabels(t *testing.T) {
	g1 := figure2(t)
	g2 := figure2(t)
	if u, l := g1.DistinctLabels(); u != g1.NumURIs() || l != g1.NumLiterals() {
		t.Fatalf("graph DistinctLabels = (%d, %d), want (%d, %d)", u, l, g1.NumURIs(), g1.NumLiterals())
	}
	c := Union(g1, g2)
	if u, l := c.DistinctLabels(); u != g1.NumURIs() || l != g1.NumLiterals() {
		t.Fatalf("union DistinctLabels = (%d, %d), want the source's (%d, %d)", u, l, g1.NumURIs(), g1.NumLiterals())
	}
	if c.NumURIs() != 2*g1.NumURIs() {
		t.Fatalf("union NumURIs = %d, want both sides' %d", c.NumURIs(), 2*g1.NumURIs())
	}
}

func TestUnionSidePanics(t *testing.T) {
	g1 := figure2(t)
	g2 := figure2(t)
	c := Union(g1, g2)
	mustPanic(t, "ToSource(target)", func() { c.ToSource(c.FromTarget(0)) })
	mustPanic(t, "ToTarget(source)", func() { c.ToTarget(0) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestUnionPreservesOutNeighbourhoods(t *testing.T) {
	g1 := figure2(t)
	g2 := figure2(t)
	c := Union(g1, g2)
	g2.Nodes(func(n NodeID) {
		want := g2.Out(n)
		got := c.Out(c.FromTarget(n))
		if len(got) != len(want) {
			t.Fatalf("node %d: out degree changed across union: %d vs %d", n, len(got), len(want))
		}
		off := NodeID(c.N1)
		for i := range want {
			if got[i].P != want[i].P+off || got[i].O != want[i].O+off {
				t.Fatalf("node %d edge %d: got %v, want offset %v", n, i, got[i], want[i])
			}
		}
	})
}

func TestGatherStats(t *testing.T) {
	g := figure2(t)
	s := GatherStats(g)
	if s.URIs != 5 || s.Literals != 2 || s.Blanks != 3 || s.Triples != 10 || s.Nodes != 10 {
		t.Errorf("unexpected stats: %+v", s)
	}
	if !strings.Contains(s.String(), "uris=5") {
		t.Errorf("String() = %q missing counts", s.String())
	}
}

func TestFindHelpers(t *testing.T) {
	g := figure2(t)
	if _, ok := g.FindURI("nope"); ok {
		t.Error("FindURI found a URI that does not exist")
	}
	if _, ok := g.FindLiteral("a"); !ok {
		t.Error("FindLiteral failed to find literal \"a\"")
	}
	n, ok := g.FindURI("u")
	if !ok || g.Label(n).Value != "u" || !g.IsURI(n) {
		t.Error("FindURI(u) returned wrong node")
	}
}

func TestLabelString(t *testing.T) {
	if URILabel("x").String() != "x" {
		t.Error("URI label rendering")
	}
	if LiteralLabel("v").String() != `"v"` {
		t.Error("literal label rendering")
	}
	if BlankLabel().String() != "⊥" {
		t.Error("blank label rendering")
	}
	if URI.String() != "uri" || Literal.String() != "literal" || Blank.String() != "blank" {
		t.Error("Kind.String rendering")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown Kind rendering")
	}
}

func TestInAdjacencyMirrorsOut(t *testing.T) {
	g := figure2(t)
	totalIn := 0
	g.Nodes(func(n NodeID) {
		in := g.In(n)
		if len(in) != g.InDegree(n) {
			t.Fatalf("node %d: len(In)=%d InDegree=%d", n, len(in), g.InDegree(n))
		}
		totalIn += len(in)
		for i := 1; i < len(in); i++ {
			if in[i-1].P > in[i].P || (in[i-1].P == in[i].P && in[i-1].O > in[i].O) {
				t.Fatalf("node %d: In not sorted", n)
			}
		}
		for _, e := range in {
			// (e.O, e.P, n) must be a triple.
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
	if totalIn != g.NumTriples() {
		t.Errorf("Σ in-degrees = %d, want %d", totalIn, g.NumTriples())
	}
}

func TestPredOccMirrorsTriples(t *testing.T) {
	g := figure2(t)
	total := 0
	g.Nodes(func(n NodeID) {
		po := g.PredOcc(n)
		if len(po) != g.PredOccDegree(n) {
			t.Fatalf("node %d: len(PredOcc)=%d PredOccDegree=%d", n, len(po), g.PredOccDegree(n))
		}
		total += len(po)
		for i := 1; i < len(po); i++ {
			if po[i-1].P > po[i].P || (po[i-1].P == po[i].P && po[i-1].O > po[i].O) {
				t.Fatalf("node %d: PredOcc not sorted", n)
			}
		}
		for _, e := range po {
			// (e.P, n, e.O) must be a triple (P holds the subject).
			found := false
			for _, oe := range g.Out(e.P) {
				if oe.P == n && oe.O == e.O {
					found = true
				}
			}
			if !found {
				t.Fatalf("node %d: phantom predicate occurrence %v", n, e)
			}
		}
	})
	if total != g.NumTriples() {
		t.Errorf("Σ predicate occurrences = %d, want %d", total, g.NumTriples())
	}
	// Literals never occur as predicates.
	lit, _ := g.FindLiteral("a")
	if g.PredOccDegree(lit) != 0 {
		t.Error("literal with predicate occurrences")
	}
}

// TestDependentsMirrorsTriples checks the recolor-dependency adjacency
// against a brute-force scan: Dependents(n) must be exactly the sorted,
// deduplicated subjects of triples using n in predicate or object position.
func TestDependentsMirrorsTriples(t *testing.T) {
	g := figure2(t)
	g.Nodes(func(n NodeID) {
		want := map[NodeID]bool{}
		for _, tr := range g.Triples() {
			if tr.P == n || tr.O == n {
				want[tr.S] = true
			}
		}
		got := g.Dependents(n)
		if len(got) != len(want) {
			t.Fatalf("Dependents(%d) = %v, want the %d subjects of %v", n, got, len(want), want)
		}
		for i, s := range got {
			if !want[s] {
				t.Errorf("Dependents(%d) contains unexpected subject %d", n, s)
			}
			if i > 0 && got[i-1] >= s {
				t.Errorf("Dependents(%d) not strictly ascending: %v", n, got)
			}
		}
	})
}

// TestDependentsPredicatePosition: a node used only as a predicate still
// reports the subjects of the triples using it — the case an object-only
// reverse adjacency would miss.
func TestDependentsPredicatePosition(t *testing.T) {
	b := NewBuilder("pred")
	s1 := b.URI("s1")
	s2 := b.URI("s2")
	p := b.URI("p")
	o := b.URI("o")
	b.Triple(s1, p, o)
	b.Triple(s2, p, o)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	got := g.Dependents(p)
	if len(got) != 2 || got[0] != s1 || got[1] != s2 {
		t.Fatalf("Dependents(p) = %v, want [%d %d]", got, s1, s2)
	}
	// s1 has the triple (s1, p, o) in both positions' target sets exactly
	// once each; the run for o must deduplicate multi-edge subjects.
	if dep := g.Dependents(o); len(dep) != 2 {
		t.Fatalf("Dependents(o) = %v, want two subjects", dep)
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewBuilder("empty").Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumTriples() != 0 {
		t.Error("empty builder should produce an empty graph")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("empty graph should validate: %v", err)
	}
}
