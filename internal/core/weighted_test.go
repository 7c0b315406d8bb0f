package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

// clamp01 maps an arbitrary float into [0, 1] for property tests.
func clamp01(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	x = math.Abs(x)
	return x - math.Floor(x)
}

func TestOPlusProperties(t *testing.T) {
	f := func(a, b, c float64) bool {
		x, y, z := clamp01(a), clamp01(b), clamp01(c)
		// Range.
		if s := OPlus(x, y); s < 0 || s > 1 {
			return false
		}
		// Commutativity.
		if OPlus(x, y) != OPlus(y, x) {
			return false
		}
		// Identity.
		if OPlus(x, 0) != x {
			return false
		}
		// Monotonicity.
		if y <= z && OPlus(x, y) > OPlus(x, z) {
			return false
		}
		// Associativity of min(x+y, 1): both orders saturate identically.
		l := OPlus(OPlus(x, y), z)
		r := OPlus(x, OPlus(y, z))
		return math.Abs(l-r) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWeightedDistance(t *testing.T) {
	g1 := figure1V1(t)
	g2 := figure1V2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	hp, _, _ := (&Engine{}).Hybrid(c, in)
	xi := NewWeighted(hp)

	ss1 := c.FromSource(mustURI(t, g1, "ss"))
	ss2 := c.FromTarget(mustURI(t, g2, "ss"))
	if d := xi.Distance(ss1, ss2); d != 0 {
		t.Errorf("distance between hybrid-aligned nodes with zero weights = %v, want 0", d)
	}
	ed := c.FromSource(mustURI(t, g1, "ed-uni"))
	if d := xi.Distance(ed, ss2); d != 1 {
		t.Errorf("distance across clusters = %v, want 1", d)
	}
	// Raising weights raises the within-cluster distance via ⊕.
	xi.W[ss1] = 0.3
	xi.W[ss2] = 0.4
	if d := xi.Distance(ss1, ss2); math.Abs(d-0.7) > 1e-12 {
		t.Errorf("weighted distance = %v, want 0.7", d)
	}
}

// TestPropagateIdentity validates the §4.5 identity
// Propagate((λTrivial, 0)) ≡ Propagate((λDeblank, 0)) ≡ (λHybrid, 0): the
// partitions coincide (up to recoloring) and all weights stay zero.
func TestPropagateIdentity(t *testing.T) {
	check := func(t *testing.T, c *rdf.Combined) {
		t.Helper()
		in := NewInterner()
		hybrid, _, _ := (&Engine{}).Hybrid(c, in)

		fromTrivial := NewWeighted(TrivialPartition(c.Graph, in))
		(&Engine{}).Propagate(c, fromTrivial, 0)
		dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
		fromDeblank := NewWeighted(dp)
		(&Engine{}).Propagate(c, fromDeblank, 0)

		if !Equivalent(fromTrivial.P, hybrid) {
			t.Error("Propagate((λTrivial,0)) is not equivalent to λHybrid")
		}
		if !Equivalent(fromDeblank.P, hybrid) {
			t.Error("Propagate((λDeblank,0)) is not equivalent to λHybrid")
		}
		for i, w := range fromTrivial.W {
			if w != 0 {
				t.Errorf("node %d: propagated weight from zero weights = %v, want 0", i, w)
				break
			}
		}
	}
	t.Run("figure1", func(t *testing.T) {
		check(t, rdf.Union(figure1V1(t), figure1V2(t)))
	})
	t.Run("figure3", func(t *testing.T) {
		check(t, rdf.Union(figure3G1(t), figure3G2(t)))
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 25; seed++ {
			r := rand.New(rand.NewSource(seed))
			check(t, randomCombined(r))
		}
	})
}

// TestRefineWeightedWeightsBounded: weights stay in [0, 1] and, when the
// refined set starts at zero, never decrease across iterations.
func TestRefineWeightedWeightsBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		in := NewInterner()
		dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
		xi := NewWeighted(dp)
		// Seed some aligned-node weights as enrichment would.
		for i := range xi.W {
			if r.Intn(4) == 0 {
				xi.W[i] = clamp01(r.Float64())
			}
		}
		un := UnalignedNonLiterals(c, xi.P)
		blanked := BlankOutWeighted(xi, un)
		cur := blanked
		for i := 0; i < 6; i++ {
			next := RefineWeightedStep(c.Graph, cur, un)
			for _, n := range un {
				if next.W[n] < cur.W[n]-1e-12 {
					return false // weights must only increase on the refined set
				}
				if next.W[n] < 0 || next.W[n] > 1 {
					return false
				}
			}
			cur = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRefineWeightedConverges: the fixpoint loop terminates and one more
// step changes weights by less than epsilon.
func TestRefineWeightedConverges(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	c := randomCombined(r)
	in := NewInterner()
	dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
	xi := NewWeighted(dp)
	for i := range xi.W {
		if r.Intn(3) == 0 {
			xi.W[i] = 0.25
		}
	}
	un := UnalignedNonLiterals(c, xi.P)
	res := xi
	iters, _, _ := (&Engine{}).Propagate(c, res, 1e-9)
	if iters <= 0 {
		t.Error("Propagate should report at least one iteration")
	}
	again := RefineWeightedStep(c.Graph, res, un)
	for _, n := range un {
		if math.Abs(again.W[n]-res.W[n]) >= 1e-9 {
			t.Errorf("weights not stabilised at node %d: %v vs %v", n, res.W[n], again.W[n])
		}
	}
	if !Equivalent(res.P, again.P) {
		t.Error("partition not stabilised after Propagate")
	}
}

// TestReweightNoOutEdges: a node with no outgoing edges keeps its weight.
func TestReweightNoOutEdges(t *testing.T) {
	b := rdf.NewBuilder("leaf")
	s := b.URI("s")
	p := b.URI("p")
	o := b.URI("o")
	b.Triple(s, p, o)
	g := mustGraph(t, b)
	w := []float64{0.8, 0.8, 0.8}
	if got := reweight(g, w, o); got != 0.8 {
		t.Errorf("reweight of sink node = %v, want unchanged 0.8", got)
	}
	// s has one out edge (p, o): reweight = (w[p] ⊕ w[o]) / 1 = 1 (capped).
	if got := reweight(g, w, s); got != 1 {
		t.Errorf("reweight(s) = %v, want 1", got)
	}
}

// TestReweightAveraging checks the (ω(p) ⊕ ω(o)) / |out| average on a node
// with two outgoing edges.
func TestReweightAveraging(t *testing.T) {
	b := rdf.NewBuilder("avg")
	s := b.URI("s")
	p := b.URI("p")
	o1 := b.URI("o1")
	o2 := b.URI("o2")
	b.Triple(s, p, o1)
	b.Triple(s, p, o2)
	g := mustGraph(t, b)
	w := make([]float64, 4)
	w[p] = 0.1
	w[o1] = 0.2
	w[o2] = 0.3
	// Terms: (0.1⊕0.2)/2 = 0.15 and (0.1⊕0.3)/2 = 0.2 → 0.35.
	if got := reweight(g, w, s); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("reweight = %v, want 0.35", got)
	}
}

func TestBlankOutWeighted(t *testing.T) {
	g1 := figure1V1(t)
	g2 := figure1V2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
	xi := NewWeighted(dp)
	for i := range xi.W {
		xi.W[i] = 0.5
	}
	n := c.FromSource(mustURI(t, g1, "ed-uni"))
	out := BlankOutWeighted(xi, []rdf.NodeID{n})
	if out.P.Color(n) != in.Blank() || out.W[n] != 0 {
		t.Error("BlankOutWeighted should blank color and zero weight")
	}
	if xi.W[n] != 0.5 {
		t.Error("BlankOutWeighted must not mutate its input")
	}
}
