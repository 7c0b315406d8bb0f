package similarity

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// TestFigure7SigmaEdit asserts the exact distances the paper derives in
// Example 5 on Figure 7.
func TestFigure7SigmaEdit(t *testing.T) {
	c, hp := combine(t, figure7G1(t), figure7G2(t))
	s, err := NewSigmaEdit(c, hp, SigmaEditOptions{})
	if err != nil {
		t.Fatal(err)
	}

	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("σEdit(%s) = %v, want %v", name, got, want)
		}
	}
	// String edit distance on unaligned literals.
	approx(`"abc","ac"`, s.Distance(srcLit(t, c, "abc"), tgtLit(t, c, "ac")), 1.0/3.0)
	// One aligned literal against an unaligned one is 1 even though the
	// normalized edit distance would be 1/2 (Example 5).
	approx(`"a","ac"`, s.Distance(srcLit(t, c, "a"), tgtLit(t, c, "ac")), 1)
	// Aligned pairs are at distance 0.
	approx(`"c","c"`, s.Distance(srcLit(t, c, "c"), tgtLit(t, c, "c")), 0)
	// Structural distances.
	approx("u,u'", s.Distance(srcNode(t, c, "u"), tgtNode(t, c, "u'")), 1.0/3.0)
	approx("v,v'", s.Distance(srcNode(t, c, "v"), tgtNode(t, c, "v'")), 1.0/6.0)
	approx("w,w'", s.Distance(srcNode(t, c, "w"), tgtNode(t, c, "w'")), 1.0/4.0)

	if s.Iterations() < 2 {
		t.Errorf("propagation iterations = %d, expected ≥ 2 (w depends on u and v)", s.Iterations())
	}
}

// TestSigmaEditCrossPairLowerThanOne mirrors Example 6's remark that σEdit
// can assign an intermediate value to pairs the weighted partition puts in
// different clusters at distance 1: a node pair whose single outgoing edges
// lead to similar (but unaligned) literals sits strictly between 0 and 1.
func TestSigmaEditCrossPairLowerThanOne(t *testing.T) {
	b1 := rdf.NewBuilder("cross-g1")
	s1 := b1.URI("s")
	b1.TripleURI(s1, "p", b1.Literal("abc"))
	g1, err := b1.Graph()
	if err != nil {
		t.Fatal(err)
	}
	b2 := rdf.NewBuilder("cross-g2")
	s2 := b2.URI("s'")
	b2.TripleURI(s2, "p", b2.Literal("abz"))
	g2, err := b2.Graph()
	if err != nil {
		t.Fatal(err)
	}
	c, hp := combine(t, g1, g2)
	s, err := NewSigmaEdit(c, hp, SigmaEditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// σEdit(s, s') = (σ(p,p) ⊕ σ("abc","abz")) / 1 = 1/3.
	d := s.Distance(srcNode(t, c, "s"), tgtNode(t, c, "s'"))
	if math.Abs(d-1.0/3.0) > 1e-9 {
		t.Errorf("σEdit(s, s') = %v, want 1/3", d)
	}
}

// TestSigmaEditBounds checks 0 ≤ σEdit ≤ 1 across all pairs of random
// graphs, and that hybrid-aligned pairs are exactly 0.
func TestSigmaEditBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		in := core.NewInterner()
		hp, _, _ := (&core.Engine{}).Hybrid(c, in)
		s, err := NewSigmaEdit(c, hp, SigmaEditOptions{})
		if err != nil {
			return false
		}
		for i := 0; i < c.N1; i++ {
			for j := c.N1; j < c.N1+c.N2; j++ {
				n, m := rdf.NodeID(i), rdf.NodeID(j)
				d := s.Distance(n, m)
				if d < 0 || d > 1 {
					return false
				}
				if hp.Color(n) == hp.Color(m) && d != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSigmaEditMonotoneRounds: re-running the fixpoint from a fresh start
// must agree with itself (determinism), and distances are stable under one
// more propagation round (the fixpoint property).
func TestSigmaEditDeterministic(t *testing.T) {
	c, hp := combine(t, figure7G1(t), figure7G2(t))
	s1, err := NewSigmaEdit(c, hp, SigmaEditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSigmaEdit(c, hp, SigmaEditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N1; i++ {
		for j := c.N1; j < c.N1+c.N2; j++ {
			n, m := rdf.NodeID(i), rdf.NodeID(j)
			if s1.Distance(n, m) != s2.Distance(n, m) {
				t.Fatalf("σEdit not deterministic at (%d,%d)", n, m)
			}
		}
	}
}

// TestSigmaEditPairGuard: the quadratic materialisation bound is enforced.
func TestSigmaEditPairGuard(t *testing.T) {
	c, hp := combine(t, figure7G1(t), figure7G2(t))
	if _, err := NewSigmaEdit(c, hp, SigmaEditOptions{MaxPairs: 1}); err == nil {
		t.Error("expected the pair-matrix guard to fire with MaxPairs=1")
	}
}

// TestSigmaEditLiteralVsNonLiteral: mixed-kind pairs are at distance 1.
func TestSigmaEditLiteralVsNonLiteral(t *testing.T) {
	c, hp := combine(t, figure7G1(t), figure7G2(t))
	s, err := NewSigmaEdit(c, hp, SigmaEditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Distance(srcNode(t, c, "u"), tgtLit(t, c, "ac")); d != 1 {
		t.Errorf("σEdit(u, \"ac\") = %v, want 1", d)
	}
	if d := s.Distance(srcLit(t, c, "b"), tgtNode(t, c, "u'")); d != 1 {
		t.Errorf("σEdit(\"b\", u') = %v, want 1", d)
	}
}

// TestSigmaEditEmptySides: graphs with nothing unaligned work and report a
// zero-size matrix.
func TestSigmaEditEmptySides(t *testing.T) {
	g1 := figure7G1(t)
	// Identical copy: everything aligns trivially.
	g2, err := rdf.ParseNTriplesString(rdf.FormatNTriples(g1), "copy")
	if err != nil {
		t.Fatal(err)
	}
	c := rdf.Union(g1, g2)
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	s, err := NewSigmaEdit(c, hp, SigmaEditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, co := s.MatrixSize()
	if r != 0 || co != 0 {
		t.Errorf("matrix size = %d×%d, want 0×0 for identical versions", r, co)
	}
	if s.Distance(0, rdf.NodeID(c.N1)) != 0 {
		t.Error("identical versions should align node 0 with its twin")
	}
}

// TestSigmaEditNoFixpoint: a σEdit propagation that reaches its round cap
// returns ErrNoFixpoint naming the stage and round, instead of panicking.
// Figure 7 needs at least two rounds (w depends on u and v).
func TestSigmaEditNoFixpoint(t *testing.T) {
	defer func(saved int) { maxSigmaEditRounds = saved }(maxSigmaEditRounds)
	maxSigmaEditRounds = 1
	c, hp := combine(t, figure7G1(t), figure7G2(t))
	_, err := NewSigmaEdit(c, hp, SigmaEditOptions{})
	var nf *core.NoFixpointError
	if !errors.Is(err, core.ErrNoFixpoint) || !errors.As(err, &nf) {
		t.Fatalf("err = %v, want ErrNoFixpoint", err)
	}
	if nf.Stage != core.StageSigmaEdit || nf.Round != 2 {
		t.Errorf("gave up in stage %q round %d, want %q round 2", nf.Stage, nf.Round, core.StageSigmaEdit)
	}
}
