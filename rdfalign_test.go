package rdfalign

import (
	"context"
	"strings"
	"testing"
)

// alignWith aligns g1 and g2 in a fresh session configured by opts.
func alignWith(g1, g2 *Graph, opts ...Option) (*Alignment, error) {
	al, err := NewAligner(opts...)
	if err != nil {
		return nil, err
	}
	return al.Align(context.Background(), g1, g2)
}

// figure1 documents from the paper's running example.
const fig1V1 = `
<ss> <address> _:b1 .
<ss> <employer> <ed-uni> .
<ss> <name> _:b2 .
_:b1 <zip> "EH8" .
_:b1 <city> "Edinburgh" .
<ed-uni> <name> "University of Edinburgh" .
<ed-uni> <city> "Edinburgh" .
_:b2 <first> "Slawek" .
_:b2 <middle> "Pawel" .
_:b2 <last> "Staworko" .
`

const fig1V2 = `
<ss> <address> _:b3 .
<ss> <employer> <uoe> .
<ss> <name> _:b4 .
_:b3 <zip> "EH8" .
_:b3 <city> "Edinburgh" .
<uoe> <name> "University of Edinburgh" .
<uoe> <city> "Edinburgh" .
_:b4 <first> "Slawomir" .
_:b4 <last> "Staworko" .
`

func parseFig1(t testing.TB) (*Graph, *Graph) {
	t.Helper()
	g1, err := ParseNTriplesString(fig1V1, "v1")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseNTriplesString(fig1V2, "v2")
	if err != nil {
		t.Fatal(err)
	}
	return g1, g2
}

func TestAlignMethodsOnFigure1(t *testing.T) {
	g1, g2 := parseFig1(t)
	for _, m := range []Method{Trivial, Deblank, Hybrid, Overlap, SigmaEdit} {
		t.Run(m.String(), func(t *testing.T) {
			a, err := alignWith(g1, g2, WithMethod(m))
			if err != nil {
				t.Fatal(err)
			}
			// ss aligns under every method.
			if got := a.MatchesOfURI("ss"); len(got) != 1 || got[0] != "ss" {
				t.Errorf("MatchesOfURI(ss) = %v", got)
			}
			// ed-uni/uoe only from Hybrid on.
			matches := a.MatchesOfURI("ed-uni")
			wantsUoe := m == Hybrid || m == Overlap || m == SigmaEdit
			hasUoe := false
			for _, u := range matches {
				if u == "uoe" {
					hasUoe = true
				}
			}
			if hasUoe != wantsUoe {
				t.Errorf("method %v: ed-uni matches = %v, want uoe: %v", m, matches, wantsUoe)
			}
		})
	}
}

func TestAlignOverlapAlignsEditedNames(t *testing.T) {
	// The name records b2/b4 from Figure 1 need the similarity methods;
	// give the edited literal enough shared words that the word-split
	// characterisation can find it (overlap({Dr,Slawek,Staworko},
	// {Dr,Slawomir,Staworko}) = 2/4 ≥ θ = 0.5; the paper's EFO/GtoPdb
	// literals are multi-word labels and titles).
	v1 := strings.Replace(fig1V1, `"Slawek"`, `"Dr Slawek Staworko"`, 1)
	v2 := strings.Replace(fig1V2, `"Slawomir"`, `"Dr Slawomir Staworko"`, 1)
	g1, err := ParseNTriplesString(v1, "v1")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseNTriplesString(v2, "v2")
	if err != nil {
		t.Fatal(err)
	}
	a, err := alignWith(g1, g2, WithMethod(Overlap), WithTheta(0.5))
	if err != nil {
		t.Fatal(err)
	}
	// The edited literal pair must now be clustered, and through
	// propagation the name records b2/b4 as well.
	l1, _ := g1.FindLiteral("Dr Slawek Staworko")
	l2, _ := g2.FindLiteral("Dr Slawomir Staworko")
	if !a.Aligned(l1, l2) {
		t.Error("overlap should align the edited name literals")
	}
	if d := a.Distance(l1, l2); d <= 0 || d >= a.Theta {
		t.Errorf("distance of edited literals = %v, want in (0, θ)", d)
	}
	// Hybrid must not align them (strictness).
	h, err := alignWith(g1, g2, WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	if h.Aligned(l1, l2) {
		t.Error("hybrid must not align edited literals")
	}
}

func TestAlignmentHierarchyPairCounts(t *testing.T) {
	g1, g2 := parseFig1(t)
	var last int
	for i, m := range []Method{Trivial, Deblank, Hybrid} {
		a, err := alignWith(g1, g2, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		n := a.PairCount()
		if i > 0 && n < last {
			t.Errorf("method %v pair count %d below previous %d", m, n, last)
		}
		last = n
	}
}

func TestEdgeStatsRatio(t *testing.T) {
	g1, g2 := parseFig1(t)
	a, err := alignWith(g1, g2, WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	st := a.EdgeStats()
	if st.Common <= 0 || st.Common > st.Union {
		t.Errorf("EdgeStats = %+v", st)
	}
	r := st.Ratio()
	if r <= 0 || r > 1 {
		t.Errorf("Ratio = %v", r)
	}
	// Self-alignment is complete under Deblank.
	self, err := alignWith(g1, g1, WithMethod(Deblank))
	if err != nil {
		t.Fatal(err)
	}
	if got := self.EdgeStats().Ratio(); got != 1 {
		t.Errorf("self-alignment ratio = %v, want 1", got)
	}
	if (EdgeStats{}).Ratio() != 1 {
		t.Error("empty EdgeStats ratio should be 1 by convention")
	}
}

func TestAlignInvalidOptions(t *testing.T) {
	g1, g2 := parseFig1(t)
	if _, err := alignWith(g1, g2, WithMethod(Method(99))); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := alignWith(g1, g2, WithTheta(2)); err == nil {
		t.Error("theta out of range accepted")
	}
}

func TestParseMethod(t *testing.T) {
	for _, m := range []Method{Trivial, Deblank, Hybrid, Overlap, SigmaEdit} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("unknown method name accepted")
	}
	if Method(99).String() == "" {
		t.Error("unknown method should still render")
	}
}

func TestUnaligned(t *testing.T) {
	g1, g2 := parseFig1(t)
	a, err := alignWith(g1, g2, WithMethod(Deblank))
	if err != nil {
		t.Fatal(err)
	}
	src, tgt := a.Unaligned()
	if len(src) == 0 || len(tgt) == 0 {
		t.Error("deblank should leave nodes unaligned on Figure 1")
	}
	names := map[string]bool{}
	for _, n := range src {
		names[g1.Label(n).String()] = true
	}
	if !names["ed-uni"] {
		t.Errorf("ed-uni should be unaligned under deblank; got %v", names)
	}
}

func TestClassifyWithGroundTruth(t *testing.T) {
	g1, g2 := parseFig1(t)
	tr := NewGroundTruth()
	tr.Add("ss", "ss")
	tr.Add("ed-uni", "uoe")
	for _, p := range []string{"address", "employer", "name", "zip", "city", "first", "last"} {
		tr.Add(p, p)
	}
	a, err := alignWith(g1, g2, WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	p := Classify(a, tr)
	if p.Exact < 8 {
		t.Errorf("exact = %d, want ≥ 8 (%s)", p.Exact, p)
	}
	if p.Missing != 0 {
		t.Errorf("missing = %d, want 0 — hybrid aligns everything in Figure 1's truth (%s)", p.Missing, p)
	}
	// Trivial misses ed-uni.
	at, err := alignWith(g1, g2, WithMethod(Trivial))
	if err != nil {
		t.Fatal(err)
	}
	pt := Classify(at, tr)
	if pt.Missing == 0 {
		t.Error("trivial should miss the renamed employer URI")
	}
}

func TestDirectMapPublicAPI(t *testing.T) {
	db := NewRelDatabase()
	if err := db.CreateTable(RelSchema{
		Name: "person",
		Columns: []RelColumn{
			{Name: "id", Type: RelInt},
			{Name: "name", Type: RelText},
		},
		Key: []string{"id"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("person", map[string]RelValue{
		"id": RelIntValue(1), "name": RelTextValue("Peter"),
	}); err != nil {
		t.Fatal(err)
	}
	g, err := DirectMap(db, MappingOptions{Prefix: "http://ex/v1/"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.FindURI("http://ex/v1/person/id=1"); !ok {
		t.Error("tuple URI missing from public DirectMap")
	}
}

func TestGeneratorsPublicAPI(t *testing.T) {
	efo, err := GenerateEFO(EFOConfig{Versions: 2, Scale: 0.005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(efo.Graphs) != 2 {
		t.Error("EFO generator via public API")
	}
	gdb, err := GenerateGtoPdb(GtoPdbConfig{Versions: 2, Scale: 0.002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gdb.GroundTruth(0, 1).Size() == 0 {
		t.Error("GtoPdb ground truth via public API")
	}
	dbp, err := GenerateDBpedia(DBpediaConfig{Versions: 2, Scale: 0.0005, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dbp.Graphs) != 2 {
		t.Error("DBpedia generator via public API")
	}
}

func TestSigmaEditDistanceAPI(t *testing.T) {
	g1, g2 := parseFig1(t)
	a, err := alignWith(g1, g2, WithMethod(SigmaEdit), WithTheta(0.5))
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := g1.FindLiteral("Slawek")
	b4, _ := g2.FindLiteral("Slawomir")
	d := a.Distance(b2, b4)
	if d <= 0 || d >= 1 {
		t.Errorf("σEdit distance of edited first names = %v, want in (0, 1)", d)
	}
	// The name records' blank nodes: σEdit aligns them within θ=0.5
	// (Figure 1's "similarity measure alignment").
	var rec1, rec2 NodeID = -1, -1
	g1.Nodes(func(n NodeID) {
		if g1.IsBlank(n) {
			for _, e := range g1.Out(n) {
				if g1.Label(e.O).Value == "Slawek" {
					rec1 = n
				}
			}
		}
	})
	g2.Nodes(func(n NodeID) {
		if g2.IsBlank(n) {
			for _, e := range g2.Out(n) {
				if g2.Label(e.O).Value == "Slawomir" {
					rec2 = n
				}
			}
		}
	})
	if rec1 < 0 || rec2 < 0 {
		t.Fatal("could not locate name records")
	}
	if !a.Aligned(rec1, rec2) {
		t.Errorf("σEdit should align the name records b2/b4 (distance %v)", a.Distance(rec1, rec2))
	}
}
