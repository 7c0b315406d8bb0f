package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

func TestAlignmentAlignedAndMatches(t *testing.T) {
	g1 := figure1V1(t)
	g2 := figure1V2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	a := NewAlignment(c, TrivialPartition(c.Graph, in))

	ss1 := mustURI(t, g1, "ss")
	ss2 := mustURI(t, g2, "ss")
	if !a.Aligned(ss1, ss2) {
		t.Fatal("trivial should align ss with ss")
	}
	matches := a.MatchesOf(ss1)
	if len(matches) != 1 || matches[0] != ss2 {
		t.Errorf("MatchesOf(ss) = %v, want [%d]", matches, ss2)
	}
	ed := mustURI(t, g1, "ed-uni")
	if got := a.MatchesOf(ed); len(got) != 0 {
		t.Errorf("MatchesOf(ed-uni) = %v, want empty", got)
	}
}

func TestAlignmentPairsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	c := randomCombined(r)
	in := NewInterner()
	p, _, _ := (&Engine{}).Deblank(c.Graph, in)
	a := NewAlignment(c, p)
	var last [2]rdf.NodeID
	first := true
	count := 0
	a.Pairs(func(n1, n2 rdf.NodeID) {
		count++
		cur := [2]rdf.NodeID{n1, n2}
		if !first {
			if cur[0] < last[0] || (cur[0] == last[0] && cur[1] <= last[1]) {
				t.Fatalf("Pairs not in sorted order: %v after %v", cur, last)
			}
		}
		first = false
		last = cur
	})
	if count != a.PairCount() {
		t.Errorf("PairCount = %d, iterated %d", a.PairCount(), count)
	}
}

func TestCrossoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		in := NewInterner()
		p, _, _ := (&Engine{}).Hybrid(c, in)
		return NewAlignment(c, p).HasCrossover()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWeightedAlignmentThreshold(t *testing.T) {
	g1 := figure1V1(t)
	g2 := figure1V2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	hp, _, _ := (&Engine{}).Hybrid(c, in)
	xi := NewWeighted(hp)

	ss1 := mustURI(t, g1, "ss")
	ss2 := mustURI(t, g2, "ss")
	a := NewWeightedAlignment(c, xi, 0.5)
	if !a.Aligned(ss1, ss2) {
		t.Error("zero-weight pair below threshold should align")
	}
	// Push the combined weight to exactly the threshold: Align_θ is
	// inclusive (σ ≤ θ, §4.1), so the pair still aligns — the regression
	// anchor for the one-convention rule documented on Alignment.
	xi.W[c.FromSource(ss1)] = 0.25
	xi.W[c.FromTarget(ss2)] = 0.25
	if !a.Aligned(ss1, ss2) {
		t.Error("pair at exactly θ must align (inclusive threshold)")
	}
	if got := a.MatchesOf(ss1); len(got) != 1 {
		t.Errorf("weighted MatchesOf at exactly θ = %v, want one match", got)
	}
	xi.W[c.FromTarget(ss2)] = 0.2
	if !a.Aligned(ss1, ss2) {
		t.Error("pair below θ should align")
	}
	xi.W[c.FromTarget(ss2)] = 0.3
	if a.Aligned(ss1, ss2) {
		t.Error("pair above θ must not align")
	}
	if got := a.MatchesOf(ss1); len(got) != 0 {
		t.Errorf("weighted MatchesOf above θ = %v, want empty", got)
	}
}

func TestEdgeAlignmentRatioBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		in := NewInterner()
		p, _, _ := (&Engine{}).Deblank(c.Graph, in)
		st := EdgeAlignment(c, p)
		if st.Common > st.Source || st.Common > st.Target {
			return false
		}
		ratio := st.Ratio()
		return ratio >= 0 && ratio <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEdgeAlignmentMonotoneInHierarchy(t *testing.T) {
	// Finer-to-coarser alignment methods can only gain common edge
	// signatures: Ratio(Trivial) ≤ Ratio(Deblank) ≤ Ratio(Hybrid).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		in := NewInterner()
		tp := TrivialPartition(c.Graph, in)
		dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
		hp, _, _ := (&Engine{}).HybridFromDeblank(c, dp)
		rt := EdgeAlignment(c, tp).Common
		rd := EdgeAlignment(c, dp).Common
		rh := EdgeAlignment(c, hp).Common
		return rt <= rd && rd <= rh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEdgeAlignmentEmptyGraphs(t *testing.T) {
	g1 := mustGraph(t, rdf.NewBuilder("e1"))
	g2 := mustGraph(t, rdf.NewBuilder("e2"))
	c := rdf.Union(g1, g2)
	in := NewInterner()
	p := TrivialPartition(c.Graph, in)
	st := EdgeAlignment(c, p)
	if st.Ratio() != 1 {
		t.Errorf("empty union ratio = %v, want 1 by convention", st.Ratio())
	}
}

func TestAlignedEntityCountFigure3(t *testing.T) {
	g1 := figure3G1(t)
	g2 := figure3G2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
	a := NewAlignment(c, dp)
	// Classes with both sides under deblank: w, p, q, r, "a", "b",
	// {b2,b3,b4}. u/v, b1/b5 unaligned.
	if got := a.AlignedEntityCount(false); got != 7 {
		t.Errorf("AlignedEntityCount(false) = %d, want 7", got)
	}
	// URI-bearing classes: w, p, q, r → 4.
	if got := a.AlignedEntityCount(true); got != 4 {
		t.Errorf("AlignedEntityCount(true) = %d, want 4", got)
	}
}

func TestAlignedNodesFigure3(t *testing.T) {
	g1 := figure3G1(t)
	g2 := figure3G2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
	st := AlignedNodes(c, dp, false)
	// Source side: w, p, q, r, "a", "b", b2, b3 → 8 (u, b1 unaligned).
	if st.Source != 8 {
		t.Errorf("AlignedNodes.Source = %d, want 8", st.Source)
	}
	// Target side: w, p, q, r, "a", "b", b4 → 7 (v, b5 unaligned).
	if st.Target != 7 {
		t.Errorf("AlignedNodes.Target = %d, want 7", st.Target)
	}
	uriOnly := AlignedNodes(c, dp, true)
	if uriOnly.Source != 4 || uriOnly.Target != 4 {
		t.Errorf("URI-only aligned nodes = %+v, want 4/4", uriOnly)
	}
}

func TestSortNodeIDs(t *testing.T) {
	ids := []rdf.NodeID{5, 1, 3}
	SortNodeIDs(ids)
	if ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Errorf("SortNodeIDs = %v", ids)
	}
}
