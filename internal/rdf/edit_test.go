package rdf

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func term(k Kind, v string) Term { return Term{Kind: k, Value: v} }

func op(insert bool, s, p, o Term) EditOp {
	return EditOp{Insert: insert, T: TermTriple{S: s, P: p, O: o}}
}

// editTestGraph builds a small graph with URIs, literals and a blank.
func editTestGraph(t *testing.T) *Graph {
	b := NewBuilder("g")
	a := b.URI("http://e/a")
	p := b.URI("http://e/p")
	b.Triple(a, p, b.Literal("one"))
	b.Triple(a, p, b.URI("http://e/b"))
	b.Triple(b.Blank("x"), p, a)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEditorApply checks the post-edit graph against a from-scratch freeze
// of the same labels and triples, and node-ID stability.
func TestEditorApply(t *testing.T) {
	g := editTestGraph(t)
	ed := NewEditor(g)
	ops := []EditOp{
		op(false, term(URI, "http://e/a"), term(URI, "http://e/p"), term(Literal, "one")),
		op(true, term(URI, "http://e/a"), term(URI, "http://e/p"), term(Literal, "1")),
		op(true, term(URI, "http://e/new"), term(URI, "http://e/p"), term(URI, "http://e/a")),
	}
	res, err := ed.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.OldNumNodes != g.NumNodes() {
		t.Errorf("OldNumNodes = %d, want %d", res.OldNumNodes, g.NumNodes())
	}
	// Existing nodes keep IDs and labels.
	for i := 0; i < g.NumNodes(); i++ {
		if g.Label(NodeID(i)) != res.Graph.Label(NodeID(i)) {
			t.Errorf("node %d label changed", i)
		}
	}
	// The result equals a from-scratch freeze of the same label/triple sets.
	want := freeze("g", res.Graph.labels, res.Graph.Triples())
	if !reflect.DeepEqual(want.Triples(), res.Graph.Triples()) ||
		!reflect.DeepEqual(want.outIndex, res.Graph.outIndex) ||
		!reflect.DeepEqual(want.outEdges, res.Graph.outEdges) {
		t.Errorf("edited graph differs from from-scratch freeze")
	}
	if res.Graph.NumTriples() != g.NumTriples()+1 {
		t.Errorf("NumTriples = %d, want %d", res.Graph.NumTriples(), g.NumTriples()+1)
	}
	// Touched = subjects of changes.
	na, _ := res.Graph.FindURI("http://e/a")
	nn, _ := res.Graph.FindURI("http://e/new")
	if want := []NodeID{na, nn}; !reflect.DeepEqual(res.Touched, want) {
		t.Errorf("Touched = %v, want %v", res.Touched, want)
	}
	// Validity is preserved without a full Validate pass.
	if err := res.Graph.Validate(); err != nil {
		t.Errorf("edited graph invalid: %v", err)
	}

	// Revert restores the editor's graph and maps.
	ed.Revert(res)
	if ed.Graph() != g {
		t.Fatal("Revert did not restore the graph")
	}
	res2, err := ed.Apply(ops)
	if err != nil {
		t.Fatalf("re-apply after revert: %v", err)
	}
	if !reflect.DeepEqual(res2.Graph.Triples(), res.Graph.Triples()) {
		t.Error("re-apply after revert differs")
	}
}

// TestEditorErrors checks strict semantics and transactional rollback.
func TestEditorErrors(t *testing.T) {
	g := editTestGraph(t)
	ed := NewEditor(g)
	pe := term(URI, "http://e/p")
	cases := []struct {
		name string
		ops  []EditOp
		want string
	}{
		{"insert existing", []EditOp{op(true, term(URI, "http://e/a"), pe, term(Literal, "one"))}, "already present"},
		{"delete absent", []EditOp{op(false, term(URI, "http://e/a"), pe, term(Literal, "nope"))}, "absent"},
		{"duplicate insert", []EditOp{
			op(true, term(URI, "http://e/a"), pe, term(Literal, "x")),
			op(true, term(URI, "http://e/a"), pe, term(Literal, "x")),
		}, "duplicate insert"},
		{"duplicate delete", []EditOp{
			op(false, term(URI, "http://e/a"), pe, term(Literal, "one")),
			op(false, term(URI, "http://e/a"), pe, term(Literal, "one")),
		}, "duplicate delete"},
		{"literal subject", []EditOp{op(true, term(Literal, "one"), pe, term(URI, "http://e/a"))}, "literal subject"},
		{"literal predicate", []EditOp{op(true, term(URI, "http://e/a"), term(Literal, "p"), term(URI, "http://e/b"))}, "not a URI"},
		{"blank delete unseen", []EditOp{op(false, term(Blank, "z"), pe, term(URI, "http://e/a"))}, "forget blank names"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ed.Apply(tc.ops)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
			if ed.Graph() != g {
				t.Fatal("failed Apply moved the editor")
			}
		})
	}
	// After any number of failures, a valid apply still works and the label
	// maps were rolled back (the new URI from the failed op resolves fresh).
	res, err := ed.Apply([]EditOp{
		op(true, term(URI, "http://e/later"), pe, term(URI, "http://e/a")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := res.Graph.FindURI("http://e/later"); !ok || int(n) != res.OldNumNodes {
		t.Errorf("new URI node = %v (%v), want first new ID %d", n, ok, res.OldNumNodes)
	}
}

// TestEditorBlankScope: blank terms resolve to script-introduced nodes and
// cancel correctly.
func TestEditorBlankScope(t *testing.T) {
	g := editTestGraph(t)
	ed := NewEditor(g)
	pe := term(URI, "http://e/p")
	res, err := ed.Apply([]EditOp{
		op(true, term(Blank, "n"), pe, term(URI, "http://e/a")),
		op(true, term(Blank, "n"), pe, term(URI, "http://e/b")),
		op(false, term(Blank, "n"), pe, term(URI, "http://e/b")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumNodes() != g.NumNodes()+1 {
		t.Fatalf("nodes = %d, want %d", res.Graph.NumNodes(), g.NumNodes()+1)
	}
	nb := NodeID(res.OldNumNodes)
	if res.Graph.Label(nb).Kind != Blank {
		t.Fatal("new node is not blank")
	}
	if deg := res.Graph.OutDegree(nb); deg != 1 {
		t.Errorf("blank out-degree = %d, want 1", deg)
	}
}

// randomEditGraph builds a random graph over a small URI/literal alphabet.
func randomEditGraph(rng *rand.Rand, name string) *Graph {
	b := NewBuilder(name)
	nodes := []NodeID{b.URI("http://e/p"), b.URI("http://e/q")}
	for i := 0; i < 4+rng.Intn(5); i++ {
		switch rng.Intn(3) {
		case 0:
			nodes = append(nodes, b.URI("http://e/n"+string(rune('a'+i))))
		case 1:
			nodes = append(nodes, b.Literal("v"+string(rune('a'+i))))
		default:
			nodes = append(nodes, b.FreshBlank())
		}
	}
	preds := nodes[:2]
	for i := 0; i < 4+rng.Intn(8); i++ {
		s := nodes[rng.Intn(len(nodes))]
		o := nodes[rng.Intn(len(nodes))]
		if b.labels[s].Kind == Literal {
			continue
		}
		b.Triple(s, preds[rng.Intn(2)], o)
	}
	return b.MustGraph()
}

// TestRebaseUnion: the rebased union is identical to a from-scratch Union
// with the edited target.
func TestRebaseUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pe := term(URI, "http://e/p")
	for trial := 0; trial < 100; trial++ {
		g1 := randomEditGraph(rng, "g1")
		g2 := randomEditGraph(rng, "g2")
		c := Union(g1, g2)
		ed := NewEditor(g2)

		// Random edit: delete some existing triples, insert some new ones.
		var ops []EditOp
		for _, tr := range g2.Triples() {
			if rng.Intn(3) == 0 && g2.Label(tr.S).Kind != Blank && g2.Label(tr.O).Kind != Blank {
				ops = append(ops, op(false,
					term(g2.Label(tr.S).Kind, g2.Label(tr.S).Value),
					term(g2.Label(tr.P).Kind, g2.Label(tr.P).Value),
					term(g2.Label(tr.O).Kind, g2.Label(tr.O).Value)))
			}
		}
		for i := 0; i < rng.Intn(4); i++ {
			ops = append(ops, op(true, term(URI, "http://e/fresh"+string(rune('a'+i))), pe, term(Literal, "fv")))
		}
		res, err := ed.Apply(ops)
		if err != nil {
			// Random deletes can collide (same label triple twice is
			// impossible — triples are sets — so only duplicate delete of
			// the same triple). Skip those trials.
			continue
		}

		got := RebaseUnion(c, res)
		want := Union(g1, res.Graph)
		if got.N1 != want.N1 || got.N2 != want.N2 {
			t.Fatalf("trial %d: N1/N2 = %d/%d, want %d/%d", trial, got.N1, got.N2, want.N1, want.N2)
		}
		if !reflect.DeepEqual(got.Graph.labels, want.Graph.labels) {
			t.Fatalf("trial %d: labels differ", trial)
		}
		if !reflect.DeepEqual(got.Graph.Triples(), want.Graph.Triples()) {
			t.Fatalf("trial %d: triples differ\ngot:  %v\nwant: %v", trial, got.Graph.Triples(), want.Graph.Triples())
		}
		if !reflect.DeepEqual(got.Graph.outIndex, want.Graph.outIndex) ||
			!reflect.DeepEqual(got.Graph.outEdges, want.Graph.outEdges) {
			t.Fatalf("trial %d: CSR differs", trial)
		}
		if got.Graph.blanks != want.Graph.blanks || got.Graph.lits != want.Graph.lits {
			t.Fatalf("trial %d: blank/literal counts differ", trial)
		}
		// Dependents (lazily built) must agree element for element.
		for n := 0; n < got.Graph.NumNodes(); n++ {
			if !reflect.DeepEqual(got.Graph.Dependents(NodeID(n)), want.Graph.Dependents(NodeID(n))) {
				t.Fatalf("trial %d: Dependents(%d) differ", trial, n)
			}
		}
	}
}
