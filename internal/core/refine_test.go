package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

// TestProposition1 validates Proposition 1 on random graphs: the
// refinement fixpoint over all nodes starting from ℓ_G captures exactly the
// maximal bisimulation computed by the naive greatest-fixpoint solver.
func TestProposition1(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "prop1", 2+r.Intn(4), r.Intn(5), r.Intn(3), r.Intn(16))
		in := NewInterner()
		p, _, _ := (&Engine{}).Bisim(g, in)
		return FromPartition(p).Equal(NaiveMaximalBisimulation(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDeblankAgainstNaive validates Engine.Deblank against the naive
// deblank-equivalence oracle (the §3.3 appendix relation) on random graphs,
// the deblanking counterpart of Proposition 1.
func TestDeblankAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "deblank-naive", 2+r.Intn(4), r.Intn(5), r.Intn(3), r.Intn(16))
		in := NewInterner()
		p, _, _ := (&Engine{}).Deblank(g, in)
		return FromPartition(p).Equal(NaiveDeblankEquivalence(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestRefineStepMonotoneFromLabels: starting from ℓ_G (base colors only),
// every refinement step yields a strictly finer-or-equivalent partition.
func TestRefineStepMonotoneFromLabels(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "mono", 2+r.Intn(4), r.Intn(5), r.Intn(3), r.Intn(16))
		in := NewInterner()
		all := make([]rdf.NodeID, g.NumNodes())
		for i := range all {
			all[i] = rdf.NodeID(i)
		}
		cur := LabelPartition(g, in)
		for i := 0; i < 5; i++ {
			next := RefineStep(g, cur, all)
			if !Finer(next, cur) {
				return false
			}
			cur = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRefineFixpointIsFixed: one more step after Refine returns an
// equivalent partition (Definition 4).
func TestRefineFixpointIsFixed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "fix", 2+r.Intn(4), r.Intn(5), r.Intn(3), r.Intn(16))
		in := NewInterner()
		all := make([]rdf.NodeID, g.NumNodes())
		for i := range all {
			all[i] = rdf.NodeID(i)
		}
		p, _, _ := (&Engine{}).Refine(g, LabelPartition(g, in), all)
		return Equivalent(p, RefineStep(g, p, all))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRefineRepresentationIndependence checks the second condition of
// Definition 3: refining two equivalent representations of the same
// partition yields equivalent partitions. The second representation is
// produced by renaming every color through a fresh interner allocation.
func TestRefineRepresentationIndependence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "rep", 2+r.Intn(4), r.Intn(5), r.Intn(3), r.Intn(16))
		in := NewInterner()
		all := make([]rdf.NodeID, g.NumNodes())
		for i := range all {
			all[i] = rdf.NodeID(i)
		}
		p1 := LabelPartition(g, in)
		// Rename colors bijectively.
		rename := map[Color]Color{}
		colors := make([]Color, p1.Len())
		for i := 0; i < p1.Len(); i++ {
			c := p1.Color(rdf.NodeID(i))
			nc, ok := rename[c]
			if !ok {
				nc = in.Fresh()
				rename[c] = nc
			}
			colors[i] = nc
		}
		p2 := NewPartition(in, colors)
		if !Equivalent(p1, p2) {
			return false
		}
		r1, _, _ := (&Engine{}).Refine(g, p1, all)
		r2, _, _ := (&Engine{}).Refine(g, p2, all)
		return Equivalent(r1, r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDeblankOnlyRecolorsBlanks: non-blank nodes keep their label colors
// under the deblank partition.
func TestDeblankOnlyRecolorsBlanks(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randomGraph(r, "deblank", 5, 4, 3, 20)
	in := NewInterner()
	p, _, _ := (&Engine{}).Deblank(g, in)
	g.Nodes(func(n rdf.NodeID) {
		if g.IsBlank(n) {
			return
		}
		if p.Color(n) != in.Base(g.Label(n)) {
			t.Errorf("non-blank node %d was recolored by deblank", n)
		}
	})
}

// TestHierarchyProperty checks Align(λTrivial) ⊆ Align(λDeblank) ⊆
// Align(λHybrid) on random combined graphs (§3.4).
func TestHierarchyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		in := NewInterner()
		trivial := alignmentPairs(NewAlignment(c, TrivialPartition(c.Graph, in)))
		dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
		deblank := alignmentPairs(NewAlignment(c, dp))
		hp, _, _ := (&Engine{}).HybridFromDeblank(c, dp)
		hybrid := alignmentPairs(NewAlignment(c, hp))
		for pr := range trivial {
			if !deblank[pr] {
				return false
			}
		}
		for pr := range deblank {
			if !hybrid[pr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestSelfAlignmentComplete: aligning a version with itself, deblank (and
// hybrid) align every node to its twin — the diagonal of the paper's
// Figure 10 with ratio 1.
func TestSelfAlignmentComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := randomGraph(r, "self", 2+r.Intn(4), r.Intn(5), 1+r.Intn(3), 3+r.Intn(14))
		// Round-trip through N-Triples to get an isomorphic copy with
		// fresh node identifiers.
		copyG, err := rdf.ParseNTriplesString(rdf.FormatNTriples(g1), "copy")
		if err != nil {
			return false
		}
		c := rdf.Union(g1, copyG)
		in := NewInterner()
		dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
		stats := EdgeAlignment(c, dp)
		return stats.Ratio() == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRefineIterationCount: refinement on an n-chain of blank nodes takes a
// number of iterations linear in the chain length, exercising deep
// fixpoints.
func TestRefineIterationCount(t *testing.T) {
	const n = 30
	b := rdf.NewBuilder("chain")
	p := b.URI("p")
	end := b.URI("end")
	prev := end
	for i := 0; i < n; i++ {
		cur := b.FreshBlank()
		b.Triple(cur, p, prev)
		prev = cur
	}
	g := mustGraph(t, b)
	in := NewInterner()
	part, iters, _ := (&Engine{}).Deblank(g, in)
	if iters < n-1 {
		t.Errorf("chain of %d blanks refined in %d iterations; expected ≥ %d", n, iters, n-1)
	}
	// All chain blanks must be distinguished: each is at a distinct
	// distance from the end marker.
	if got, want := part.NumClasses(), g.NumNodes(); got != want {
		t.Errorf("chain classes = %d, want %d (all nodes distinct)", got, want)
	}
}

// TestRefineCyclicBlanks: blank nodes forming a cycle (the case the
// label-invention method of Tzitzikas et al. cannot handle, per §1) refine
// without divergence and align across versions.
func TestRefineCyclicBlanks(t *testing.T) {
	build := func(name string) *rdf.Graph {
		b := rdf.NewBuilder(name)
		p := b.URI("p")
		x := b.Blank("x")
		y := b.Blank("y")
		z := b.Blank("z")
		b.Triple(x, p, y)
		b.Triple(y, p, z)
		b.Triple(z, p, x)
		root := b.URI("root")
		b.Triple(root, p, x)
		return b.MustGraph()
	}
	g1 := build("cyc1")
	g2 := build("cyc2")
	c := rdf.Union(g1, g2)
	in := NewInterner()
	dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
	a := NewAlignment(c, dp)
	// All six blanks are mutually bisimilar (in a symmetric 3-cycle every
	// node has identical unfoldings), so each G1 blank aligns with every
	// G2 blank.
	count := 0
	a.Pairs(func(n1, n2 rdf.NodeID) {
		if c.IsBlank(c.FromSource(n1)) {
			count++
		}
	})
	if count != 9 {
		t.Errorf("cycle blanks aligned pairs = %d, want 9 (3×3)", count)
	}
}
