package truth

import (
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

func TestTruthBasics(t *testing.T) {
	tr := New()
	if tr.Size() != 0 {
		t.Error("new truth should be empty")
	}
	tr.Add("a", "x")
	tr.Add("b", "y")
	if tr.Size() != 2 {
		t.Errorf("size = %d, want 2", tr.Size())
	}
	if got, ok := tr.TargetOf("a"); !ok || got != "x" {
		t.Errorf("TargetOf(a) = %q, %v", got, ok)
	}
	if got, ok := tr.SourceOf("y"); !ok || got != "b" {
		t.Errorf("SourceOf(y) = %q, %v", got, ok)
	}
	if _, ok := tr.TargetOf("missing"); ok {
		t.Error("TargetOf on unmapped URI should report absence")
	}
	// Idempotent re-add.
	tr.Add("a", "x")
	if tr.Size() != 2 {
		t.Error("idempotent Add changed size")
	}
}

func TestTruthConflictsPanic(t *testing.T) {
	cases := []func(tr *Truth){
		func(tr *Truth) { tr.Add("a", "y") }, // source remapped
		func(tr *Truth) { tr.Add("b", "x") }, // target remapped
	}
	for i, f := range cases {
		tr := New()
		tr.Add("a", "x")
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: conflicting Add did not panic", i)
				}
			}()
			f(tr)
		}()
	}
}

func TestPrecisionStringAndTotal(t *testing.T) {
	p := Precision{Exact: 1, Inclusive: 2, Missing: 3, False: 4, TrueNegative: 5}
	if p.Total() != 15 {
		t.Errorf("Total = %d", p.Total())
	}
	s := p.String()
	for _, want := range []string{"exact=1", "inclusive=2", "missing=3", "false=4", "trueneg=5"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// exactScenario builds a combined graph where one pair aligns exactly.
func exactScenario(t *testing.T) (*rdf.Combined, *Truth) {
	t.Helper()
	b1 := rdf.NewBuilder("s")
	s1 := b1.URI("http://v1/only")
	b1.TripleURI(s1, "p", b1.Literal("unique payload"))
	g1, err := b1.Graph()
	if err != nil {
		t.Fatal(err)
	}
	b2 := rdf.NewBuilder("t")
	s2 := b2.URI("http://v2/only")
	b2.TripleURI(s2, "p", b2.Literal("unique payload"))
	g2, err := b2.Graph()
	if err != nil {
		t.Fatal(err)
	}
	tr := New()
	tr.Add("http://v1/only", "http://v2/only")
	return rdf.Union(g1, g2), tr
}

func TestClassifyExact(t *testing.T) {
	c, tr := exactScenario(t)
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	a := core.NewAlignment(c, hp)
	p := Classify(c, a.MatchesOf, tr)
	if p.Exact != 1 {
		t.Errorf("exact = %d, want 1 (%s)", p.Exact, p)
	}
	// The shared predicate p is aligned but truthless → false.
	if p.False != 1 {
		t.Errorf("false = %d, want 1 (%s)", p.False, p)
	}
}

func TestClassifyCustomMatches(t *testing.T) {
	c, tr := exactScenario(t)
	// A matcher that aligns nothing: the truth pair becomes missing and
	// the predicate a true negative.
	p := Classify(c, func(rdf.NodeID) []rdf.NodeID { return nil }, tr)
	if p.Missing != 1 || p.TrueNegative != 1 || p.Exact != 0 || p.False != 0 {
		t.Errorf("empty matcher precision = %s", p)
	}
}

func TestAlignedTruthPairsMissingNodes(t *testing.T) {
	c, tr := exactScenario(t)
	// Truth mentioning URIs absent from the graphs is simply skipped.
	tr.Add("http://v1/ghost", "http://v2/ghost")
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	if got := AlignedTruthPairs(c, hp, tr); got != 1 {
		t.Errorf("AlignedTruthPairs = %d, want 1", got)
	}
}
