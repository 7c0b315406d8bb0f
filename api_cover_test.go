package rdfalign

import (
	"strings"
	"testing"
)

// TestModelWrappers exercises the thin model re-exports.
func TestModelWrappers(t *testing.T) {
	b := NewBuilder("w")
	s := b.URI("s")
	b.TripleURI(s, "p", b.Literal("v"))
	g := b.MustGraph()
	if got := GatherStats(g); got.Triples != 1 {
		t.Errorf("GatherStats = %+v", got)
	}
	var sb strings.Builder
	if err := WriteNTriples(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseNTriples(strings.NewReader(sb.String()), "rt")
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTriples() != 1 {
		t.Error("round trip through public wrappers")
	}
	c := Union(g, g2)
	if c.N1 != g.NumNodes() || c.N2 != g2.NumNodes() {
		t.Error("Union wrapper")
	}
}

// TestTurtlePublicAPI: Turtle in, align, Turtle out.
func TestTurtlePublicAPI(t *testing.T) {
	ttl := `@prefix ex: <http://example.org/> .
ex:ss ex:employer ex:ed-uni .
ex:ed-uni ex:name "University of Edinburgh" .
`
	g1, err := ParseTurtleString(ttl, "v1")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseTurtleString(strings.ReplaceAll(ttl, "ed-uni", "uoe"), "v2")
	if err != nil {
		t.Fatal(err)
	}
	a, err := alignWith(g1, g2, WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.MatchesOfURI("http://example.org/ed-uni"); len(got) != 1 ||
		got[0] != "http://example.org/uoe" {
		t.Errorf("renamed URI matches = %v", got)
	}
	var sb strings.Builder
	if err := WriteTurtle(&sb, g1); err != nil {
		t.Fatal(err)
	}
	g3, err := ParseTurtle(strings.NewReader(sb.String()), "rt")
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumTriples() != g1.NumTriples() {
		t.Error("Turtle round trip through the public API changed the graph")
	}
}

// TestAlignmentAccessors covers the diagnostics accessors and the combined
// graph getter.
func TestAlignmentAccessors(t *testing.T) {
	g1, g2 := parseFig1(t)
	a, err := alignWith(g1, g2, WithMethod(Overlap))
	if err != nil {
		t.Fatal(err)
	}
	if a.Combined() == nil {
		t.Error("Combined() nil")
	}
	if a.RefineIterations() <= 0 {
		t.Error("RefineIterations should be positive for Overlap (hybrid base)")
	}
	if a.OverlapRounds() <= 0 {
		t.Error("OverlapRounds should be positive")
	}
	h, err := alignWith(g1, g2, WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	if h.OverlapRounds() != 0 {
		t.Error("OverlapRounds should be zero for Hybrid")
	}
}

// TestSigmaEditAlignmentViews covers the σEdit-specific implementations of
// Pairs, PairCount, MatchesOf, AlignedEntityCount and Distance.
func TestSigmaEditAlignmentViews(t *testing.T) {
	g1, g2 := parseFig1(t)
	a, err := alignWith(g1, g2, WithMethod(SigmaEdit), WithTheta(0.4))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	seen := map[[2]NodeID]bool{}
	a.Pairs(func(n1, n2 NodeID) {
		count++
		seen[[2]NodeID{n1, n2}] = true
		if !a.Aligned(n1, n2) {
			t.Errorf("Pairs emitted (%d,%d) but Aligned is false", n1, n2)
		}
	})
	if count == 0 || count != a.PairCount() {
		t.Errorf("PairCount = %d, Pairs emitted %d", a.PairCount(), count)
	}
	// MatchesOf agrees with Pairs.
	ss, _ := g1.FindURI("ss")
	for _, m := range a.MatchesOf(ss) {
		if !seen[[2]NodeID{ss, m}] {
			t.Errorf("MatchesOf(ss) contains (%d) missing from Pairs", m)
		}
	}
	// AlignedEntityCount for σEdit counts matched source nodes.
	if got := a.AlignedEntityCount(true); got <= 0 {
		t.Errorf("AlignedEntityCount(true) = %d", got)
	}
	if all, uri := a.AlignedEntityCount(false), a.AlignedEntityCount(true); all < uri {
		t.Errorf("all-kind count %d below URI-only count %d", all, uri)
	}
}

// TestDistanceBranches covers the partition (0/1) and weighted branches of
// Alignment.Distance.
func TestDistanceBranches(t *testing.T) {
	g1, g2 := parseFig1(t)
	h, err := alignWith(g1, g2, WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	ss1, _ := g1.FindURI("ss")
	ss2, _ := g2.FindURI("ss")
	ed1, _ := g1.FindURI("ed-uni")
	if d := h.Distance(ss1, ss2); d != 0 {
		t.Errorf("partition distance of aligned pair = %v", d)
	}
	if d := h.Distance(ed1, ss2); d != 1 {
		t.Errorf("partition distance across classes = %v", d)
	}
	o, err := alignWith(g1, g2, WithMethod(Overlap))
	if err != nil {
		t.Fatal(err)
	}
	if d := o.Distance(ss1, ss2); d != 0 {
		t.Errorf("weighted distance of zero-weight pair = %v", d)
	}
	if d := o.Distance(ed1, ss2); d != 1 {
		t.Errorf("weighted distance across clusters = %v", d)
	}
}

// TestMatchesOfURIMissing covers the absent-URI path.
func TestMatchesOfURIMissing(t *testing.T) {
	g1, g2 := parseFig1(t)
	a, err := alignWith(g1, g2, WithMethod(Trivial))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.MatchesOfURI("http://nope/"); got != nil {
		t.Errorf("MatchesOfURI(absent) = %v", got)
	}
}
