package core

import (
	"testing"

	"rdfalign/internal/rdf"
)

// TestFigure1Trivial checks the "trivial alignment" claims of the paper's
// Figure 1: literals and the URI ss align by label equality; the address
// record blanks, the renamed employer URIs and the edited names do not.
func TestFigure1Trivial(t *testing.T) {
	g1 := figure1V1(t)
	g2 := figure1V2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	a := NewAlignment(c, TrivialPartition(c.Graph, in))

	aligned := [][2]string{
		{"ss", "ss"}, {"address", "address"}, {"employer", "employer"},
		{"name", "name"}, {"zip", "zip"}, {"city", "city"},
		{"first", "first"}, {"last", "last"},
	}
	for _, pair := range aligned {
		n1 := mustURI(t, g1, pair[0])
		n2 := mustURI(t, g2, pair[1])
		if !a.Aligned(n1, n2) {
			t.Errorf("trivial should align URIs %s and %s", pair[0], pair[1])
		}
	}
	for _, lit := range []string{"EH8", "Edinburgh", "University of Edinburgh", "Staworko"} {
		if !a.Aligned(mustLiteral(t, g1, lit), mustLiteral(t, g2, lit)) {
			t.Errorf("trivial should align literal %q", lit)
		}
	}
	if a.Aligned(mustURI(t, g1, "ed-uni"), mustURI(t, g2, "uoe")) {
		t.Error("trivial must not align ed-uni with uoe")
	}
	b1 := blankBySignature(t, g1, "zip", "EH8")
	b3 := blankBySignature(t, g2, "zip", "EH8")
	if a.Aligned(b1, b3) {
		t.Error("trivial must not align blank nodes")
	}
}

// TestFigure1Deblank checks the "bisimulation alignment" claims of
// Figure 1: the address records b1 and b3 align because they carry the same
// information structured the same way; the edited name records b2 and b4 do
// not; neither do ed-uni and uoe (different URI labels).
func TestFigure1Deblank(t *testing.T) {
	g1 := figure1V1(t)
	g2 := figure1V2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	p, _, _ := (&Engine{}).Deblank(c.Graph, in)
	a := NewAlignment(c, p)

	b1 := blankBySignature(t, g1, "zip", "EH8")
	b3 := blankBySignature(t, g2, "zip", "EH8")
	if !a.Aligned(b1, b3) {
		t.Error("deblank should align the address records b1 and b3")
	}
	b2 := blankBySignature(t, g1, "first", "Slawek")
	b4 := blankBySignature(t, g2, "first", "Slawomir")
	if a.Aligned(b2, b4) {
		t.Error("deblank must not align the edited name records b2 and b4")
	}
	if a.Aligned(mustURI(t, g1, "ed-uni"), mustURI(t, g2, "uoe")) {
		t.Error("deblank must not align ed-uni with uoe (bisimulation keeps URI labels)")
	}
}

// TestFigure1Hybrid checks §3.4 on Figure 1: after blanking unaligned
// non-literals, ed-uni aligns with uoe (same contents), while the name
// records b2 and b4 still differ structurally (an extra middle name).
func TestFigure1Hybrid(t *testing.T) {
	g1 := figure1V1(t)
	g2 := figure1V2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	p, _, _ := (&Engine{}).Hybrid(c, in)
	a := NewAlignment(c, p)

	if !a.Aligned(mustURI(t, g1, "ed-uni"), mustURI(t, g2, "uoe")) {
		t.Error("hybrid should align ed-uni with uoe")
	}
	b1 := blankBySignature(t, g1, "zip", "EH8")
	b3 := blankBySignature(t, g2, "zip", "EH8")
	if !a.Aligned(b1, b3) {
		t.Error("hybrid should keep the deblank alignment of b1 and b3")
	}
	b2 := blankBySignature(t, g1, "first", "Slawek")
	b4 := blankBySignature(t, g2, "first", "Slawomir")
	if a.Aligned(b2, b4) {
		t.Error("hybrid must not align b2 and b4 (that requires the similarity methods of §4)")
	}
	// The middle predicate exists only in version 1 and must stay
	// unaligned even under hybrid.
	mid := mustURI(t, g1, "middle")
	if got := a.MatchesOf(mid); len(got) != 0 {
		t.Errorf("middle should be unaligned, got matches %v", got)
	}
}

// TestFigure2Bisimilarity reproduces Example 2 on the Figure 2/3 source
// graph: b2 and b3 are bisimilar, b1 is not bisimilar to either, and the
// refinement-based partition agrees with the naive fixpoint solver
// (Proposition 1 on a concrete graph).
func TestFigure2Bisimilarity(t *testing.T) {
	g := figure3G1(t)
	in := NewInterner()
	p, iters, _ := (&Engine{}).Bisim(g, in)
	if iters == 0 {
		t.Error("refinement should take at least one iteration on Figure 2")
	}
	// b2 and b3 both have signature (q, "a"), so find them explicitly.
	var qa []rdf.NodeID
	pq := mustURI(t, g, "q")
	la := mustLiteral(t, g, "a")
	g.Nodes(func(n rdf.NodeID) {
		if !g.IsBlank(n) {
			return
		}
		for _, e := range g.Out(n) {
			if e.P == pq && e.O == la {
				qa = append(qa, n)
			}
		}
	})
	if len(qa) != 2 {
		t.Fatalf("expected exactly 2 blanks with (q,a) signature, got %d", len(qa))
	}
	if !p.SameClass(qa[0], qa[1]) {
		t.Error("b2 and b3 should be bisimilar")
	}
	b1 := blankBySignature(t, g, "q", "b")
	if p.SameClass(b1, qa[0]) {
		t.Error("b1 must not be bisimilar to b2")
	}
	u := mustURI(t, g, "u")
	if p.SameClass(u, qa[0]) {
		t.Error("u must not be bisimilar to a blank node (labels differ)")
	}
	// Proposition 1: the partition's relation equals Bisim(G).
	naive := NaiveMaximalBisimulation(g)
	if !FromPartition(p).Equal(naive) {
		t.Error("refinement partition does not capture the maximal bisimulation")
	}
}

// TestFigure3Deblank reproduces Example 3: the duplicated blanks b2, b3 of
// G1 align with b4 of G2; b1 does not align with b5 because b1's content
// mentions u where b5's mentions the renamed v.
func TestFigure3Deblank(t *testing.T) {
	g1 := figure3G1(t)
	g2 := figure3G2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	p, _, _ := (&Engine{}).Deblank(c.Graph, in)
	a := NewAlignment(c, p)

	b1 := blankBySignature(t, g1, "q", "b")
	b5 := blankBySignature(t, g2, "q", "b")
	if a.Aligned(b1, b5) {
		t.Error("deblank must not align b1 with b5 (u renamed to v)")
	}
	b4 := blankBySignature(t, g2, "q", "a")
	pq := mustURI(t, g1, "q")
	la := mustLiteral(t, g1, "a")
	count := 0
	g1.Nodes(func(n rdf.NodeID) {
		if !g1.IsBlank(n) {
			return
		}
		for _, e := range g1.Out(n) {
			if e.P == pq && e.O == la {
				count++
				if !a.Aligned(n, b4) {
					t.Errorf("deblank should align duplicated blank %d with b4", n)
				}
			}
		}
	})
	if count != 2 {
		t.Fatalf("expected 2 duplicated blanks in G1, found %d", count)
	}
}

// TestFigure3Hybrid reproduces Example 4: hybrid aligns u with v, and then
// b1 with b5 whose deblank colors embedded the differing URIs.
func TestFigure3Hybrid(t *testing.T) {
	g1 := figure3G1(t)
	g2 := figure3G2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	p, _, _ := (&Engine{}).Hybrid(c, in)
	a := NewAlignment(c, p)

	if !a.Aligned(mustURI(t, g1, "u"), mustURI(t, g2, "v")) {
		t.Error("hybrid should align u with v")
	}
	b1 := blankBySignature(t, g1, "q", "b")
	b5 := blankBySignature(t, g2, "q", "b")
	if !a.Aligned(b1, b5) {
		t.Error("hybrid should align b1 with b5")
	}
}

// TestFigure3Hierarchy checks the containment chain at the end of §3:
// Align(λTrivial) ⊆ Align(λDeblank) ⊆ Align(λHybrid), strictly on this
// example.
func TestFigure3Hierarchy(t *testing.T) {
	g1 := figure3G1(t)
	g2 := figure3G2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()

	trivial := alignmentPairs(NewAlignment(c, TrivialPartition(c.Graph, in)))
	deblankP, _, _ := (&Engine{}).Deblank(c.Graph, in)
	deblank := alignmentPairs(NewAlignment(c, deblankP))
	hybridP, _, _ := (&Engine{}).Hybrid(c, in)
	hybrid := alignmentPairs(NewAlignment(c, hybridP))

	for pr := range trivial {
		if !deblank[pr] {
			t.Errorf("pair %v in Trivial but not Deblank", pr)
		}
	}
	for pr := range deblank {
		if !hybrid[pr] {
			t.Errorf("pair %v in Deblank but not Hybrid", pr)
		}
	}
	if len(trivial) >= len(deblank) || len(deblank) >= len(hybrid) {
		t.Errorf("hierarchy should be strict on Figure 3: %d, %d, %d",
			len(trivial), len(deblank), len(hybrid))
	}
}
