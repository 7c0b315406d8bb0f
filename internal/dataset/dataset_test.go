package dataset

import (
	"math/rand"
	"strings"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/truth"
)

func TestLexiconDeterminism(t *testing.T) {
	l1 := NewLexicon(42, 100)
	l2 := NewLexicon(42, 100)
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		if l1.Phrase(r1, 3) != l2.Phrase(r2, 3) {
			t.Fatal("lexicon output is not deterministic")
		}
	}
}

func TestLexiconTypoChanges(t *testing.T) {
	l := NewLexicon(1, 50)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		s := l.Phrase(r, 2)
		edited := l.Typo(r, s)
		if edited == s {
			t.Fatalf("Typo returned the input unchanged: %q", s)
		}
	}
	if l.Typo(r, "") != "" {
		t.Error("Typo of empty string should be empty")
	}
}

func TestLexiconEditPhraseKeepsMostWords(t *testing.T) {
	l := NewLexicon(2, 50)
	r := rand.New(rand.NewSource(11))
	shared := 0
	total := 0
	for i := 0; i < 100; i++ {
		s := l.Phrase(r, 5)
		e := l.EditPhrase(r, s)
		sw := map[string]bool{}
		for _, w := range strings.Fields(s) {
			sw[w] = true
		}
		for _, w := range strings.Fields(e) {
			total++
			if sw[w] {
				shared++
			}
		}
	}
	if float64(shared)/float64(total) < 0.7 {
		t.Errorf("EditPhrase shares only %d/%d words; overlap heuristic needs word stability", shared, total)
	}
}

func tinyGtoPdb(t testing.TB) *GtoPdb {
	t.Helper()
	d, err := GenerateGtoPdb(GtoPdbConfig{Versions: 4, Scale: 0.004, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGtoPdbShape(t *testing.T) {
	d := tinyGtoPdb(t)
	if len(d.Graphs) != 4 {
		t.Fatalf("graphs = %d, want 4", len(d.Graphs))
	}
	for v, g := range d.Graphs {
		st := rdf.GatherStats(g)
		if st.Blanks != 0 {
			t.Errorf("v%d: GtoPdb graphs must have no blank nodes, got %d", v+1, st.Blanks)
		}
		if st.Literals <= st.URIs/2 {
			t.Errorf("v%d: literal count %d suspiciously low vs URIs %d", v+1, st.Literals, st.URIs)
		}
		if v > 0 {
			prev := rdf.GatherStats(d.Graphs[v-1])
			if st.Triples <= prev.Triples {
				t.Errorf("v%d: triples %d did not grow from %d", v+1, st.Triples, prev.Triples)
			}
		}
	}
}

func TestGtoPdbPrefixDisjoint(t *testing.T) {
	d := tinyGtoPdb(t)
	uris := map[string]int{}
	for v, g := range d.Graphs {
		g.Nodes(func(n rdf.NodeID) {
			if !g.IsURI(n) {
				return
			}
			u := g.Label(n).Value
			if prev, ok := uris[u]; ok && prev != v {
				t.Fatalf("URI %s appears in versions %d and %d", u, prev+1, v+1)
			}
			uris[u] = v
		})
	}
}

func TestGtoPdbDeterminism(t *testing.T) {
	d1 := tinyGtoPdb(t)
	d2 := tinyGtoPdb(t)
	for v := range d1.Graphs {
		if rdf.FormatNTriples(d1.Graphs[v]) != rdf.FormatNTriples(d2.Graphs[v]) {
			t.Fatalf("version %d differs across identical-seed runs", v+1)
		}
	}
	d3, err := GenerateGtoPdb(GtoPdbConfig{Versions: 4, Scale: 0.004, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rdf.FormatNTriples(d1.Graphs[0]) == rdf.FormatNTriples(d3.Graphs[0]) {
		t.Error("different seeds should give different data")
	}
}

func TestGtoPdbGroundTruth(t *testing.T) {
	d := tinyGtoPdb(t)
	tr := d.GroundTruth(0, 1)
	if tr.Size() == 0 {
		t.Fatal("ground truth between consecutive versions is empty")
	}
	total, common := d.EntityStats(0, 1)
	if common != tr.Size() {
		t.Errorf("EntityStats common = %d, truth size = %d", common, tr.Size())
	}
	if total < common {
		t.Errorf("total %d < common %d", total, common)
	}
	// Spot-check one pair: URIs must live in their respective graphs and
	// map prefix v1 → v2.
	checked := false
	g1, g2 := d.Graphs[0], d.Graphs[1]
	g1.Nodes(func(n rdf.NodeID) {
		if checked || !g1.IsURI(n) {
			return
		}
		su := g1.Label(n).Value
		tu, ok := tr.TargetOf(su)
		if !ok {
			return
		}
		if !strings.HasPrefix(su, d.Prefixes[0]) || !strings.HasPrefix(tu, d.Prefixes[1]) {
			t.Errorf("truth pair has wrong prefixes: %s → %s", su, tu)
		}
		if _, ok := g2.FindURI(tu); !ok {
			t.Errorf("truth target %s not in version 2", tu)
		}
		checked = true
	})
	if !checked {
		t.Error("no ground-truth pair could be spot-checked")
	}
	// Self ground truth is total.
	self := d.GroundTruth(2, 2)
	totalSelf, commonSelf := d.EntityStats(2, 2)
	if self.Size() != commonSelf || totalSelf != commonSelf {
		t.Error("self ground truth should cover every entity exactly once")
	}
}

func TestGtoPdbChurnShape(t *testing.T) {
	// The 3→4 transition (index 2→3) must churn much more than others.
	d, err := GenerateGtoPdb(GtoPdbConfig{Versions: 5, Scale: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rel := func(i, j int) float64 {
		total, common := d.EntityStats(i, j)
		return float64(total-common) / float64(total)
	}
	if rel(2, 3) <= rel(0, 1) || rel(2, 3) <= rel(1, 2) || rel(2, 3) <= rel(3, 4) {
		t.Errorf("3→4 churn %.3f should exceed neighbours %.3f %.3f %.3f",
			rel(2, 3), rel(0, 1), rel(1, 2), rel(3, 4))
	}
}

func tinyEFO(t testing.TB) *EFO {
	t.Helper()
	d, err := GenerateEFO(EFOConfig{Versions: 10, Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEFOShape(t *testing.T) {
	d := tinyEFO(t)
	if len(d.Graphs) != 10 {
		t.Fatalf("graphs = %d, want 10", len(d.Graphs))
	}
	for v, g := range d.Graphs {
		st := rdf.GatherStats(g)
		if st.Blanks == 0 {
			t.Errorf("v%d: EFO graphs must contain blank nodes", v+1)
		}
		frac := float64(st.Literals) / float64(st.Nodes)
		if frac < 0.5 || frac > 0.9 {
			t.Errorf("v%d: literal fraction %.2f outside the EFO-like band", v+1, frac)
		}
		blankFrac := float64(st.Blanks) / float64(st.Nodes)
		if blankFrac < 0.02 || blankFrac > 0.25 {
			t.Errorf("v%d: blank fraction %.3f outside the EFO-like band", v+1, blankFrac)
		}
	}
	// Growth.
	if d.Graphs[9].NumTriples() <= d.Graphs[0].NumTriples() {
		t.Error("EFO should grow across versions")
	}
}

func TestEFOPrefixMigration(t *testing.T) {
	d := tinyEFO(t)
	countPrefix := func(g *rdf.Graph, prefix string) int {
		n := 0
		g.Nodes(func(id rdf.NodeID) {
			if g.IsURI(id) && strings.HasPrefix(g.Label(id).Value, prefix) {
				n++
			}
		})
		return n
	}
	// Old OBO prefix present early, gone from version 8 (index 7).
	if countPrefix(d.Graphs[0], oboOldPrefix) == 0 {
		t.Error("old OBO prefix missing in version 1")
	}
	if got := countPrefix(d.Graphs[7], oboOldPrefix); got != 0 {
		t.Errorf("old OBO prefix still present in version 8: %d URIs", got)
	}
	if countPrefix(d.Graphs[7], oboNewPrefix) == 0 {
		t.Error("new OBO prefix missing in version 8")
	}
	// Special classes: new prefix appears already in version 5 (index 4).
	if countPrefix(d.Graphs[4], oboNewPrefix) == 0 {
		t.Error("reappearing classes should use the new prefix in version 5")
	}
	if countPrefix(d.Graphs[2], oboNewPrefix) != 0 {
		t.Error("new prefix must not appear in version 3")
	}
}

func TestEFODuplicatedBlanksAreBisimilar(t *testing.T) {
	d := tinyEFO(t)
	g := d.Graphs[2] // version with the highest duplication rate
	in := core.NewInterner()
	p, _, _ := (&core.Engine{}).Deblank(g, in)
	// Count blanks per class; duplicated restriction blanks share colors.
	classCount := map[core.Color]int{}
	blanks := 0
	g.Nodes(func(n rdf.NodeID) {
		if g.IsBlank(n) {
			blanks++
			classCount[p.Color(n)]++
		}
	})
	dups := 0
	for _, c := range classCount {
		if c > 1 {
			dups += c
		}
	}
	if dups == 0 {
		t.Error("expected duplicated (bisimilar) blank nodes in the high-duplication version")
	}
}

func TestEFOGroundTruthAndDeterminism(t *testing.T) {
	d1 := tinyEFO(t)
	d2 := tinyEFO(t)
	for v := range d1.Graphs {
		if rdf.FormatNTriples(d1.Graphs[v]) != rdf.FormatNTriples(d2.Graphs[v]) {
			t.Fatalf("EFO version %d not deterministic", v+1)
		}
	}
	tr := d1.GroundTruth(0, 9)
	if tr.Size() == 0 {
		t.Fatal("EFO ground truth empty")
	}
	// Migrated URIs must appear as non-identity pairs.
	migrated := 0
	identity := 0
	d1.Graphs[0].Nodes(func(n rdf.NodeID) {
		if !d1.Graphs[0].IsURI(n) {
			return
		}
		su := d1.Graphs[0].Label(n).Value
		if tu, ok := tr.TargetOf(su); ok {
			if su == tu {
				identity++
			} else {
				migrated++
			}
		}
	})
	if migrated == 0 {
		t.Error("expected prefix-migrated ground-truth pairs between v1 and v10")
	}
	if identity == 0 {
		t.Error("expected stable EFO-prefixed pairs between v1 and v10")
	}
}

func TestDBpediaShape(t *testing.T) {
	d, err := GenerateDBpedia(DBpediaConfig{Versions: 6, Scale: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Graphs) != 6 {
		t.Fatalf("graphs = %d, want 6", len(d.Graphs))
	}
	for v := 1; v < 6; v++ {
		if d.Graphs[v].NumTriples() <= d.Graphs[v-1].NumTriples() {
			t.Errorf("v%d: DBpedia should grow monotonically", v+1)
		}
	}
	st := rdf.GatherStats(d.Graphs[0])
	if st.Blanks != 0 {
		t.Error("DBpedia-like graphs have no blanks")
	}
	// Category hierarchy exists.
	g := d.Graphs[0]
	if _, ok := g.FindURI(skosBroader); !ok {
		t.Error("missing skos:broader predicate")
	}
	if _, ok := g.FindURI(dctermsSubj); !ok {
		t.Error("missing dcterms:subject predicate")
	}
}

func TestDBpediaDeterminism(t *testing.T) {
	d1, err := GenerateDBpedia(DBpediaConfig{Versions: 2, Scale: 0.001, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := GenerateDBpedia(DBpediaConfig{Versions: 2, Scale: 0.001, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := range d1.Graphs {
		if rdf.FormatNTriples(d1.Graphs[v]) != rdf.FormatNTriples(d2.Graphs[v]) {
			t.Fatalf("DBpedia version %d not deterministic", v+1)
		}
	}
}

// TestTruthClassify exercises the precision classes on a tiny constructed
// case with every outcome.
func TestTruthClassify(t *testing.T) {
	b1 := rdf.NewBuilder("t1")
	a1 := b1.URI("http://v1/a")
	b1x := b1.URI("http://v1/b")
	c1 := b1.URI("http://v1/c")
	d1 := b1.URI("http://v1/d")
	p1 := b1.URI("p")
	lit := b1.Literal("x")
	b1.Triple(a1, p1, lit)
	b1.Triple(b1x, p1, lit)
	b1.Triple(c1, p1, b1.Literal("c only"))
	b1.Triple(d1, p1, b1.Literal("d only"))
	g1 := b1.MustGraph()

	b2 := rdf.NewBuilder("t2")
	a2 := b2.URI("http://v2/a")
	b2x := b2.URI("http://v2/b")
	c2 := b2.URI("http://v2/c")
	p2 := b2.URI("p")
	lit2 := b2.Literal("x")
	b2.Triple(a2, p2, lit2)
	b2.Triple(b2x, p2, lit2)
	b2.Triple(c2, p2, b2.Literal("c2 only"))
	g2 := b2.MustGraph()

	c := rdf.Union(g1, g2)
	tr := truth.New()
	tr.Add("http://v1/a", "http://v2/a")
	tr.Add("http://v1/b", "http://v2/b")
	tr.Add("http://v1/c", "http://v2/c")

	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	a := core.NewAlignment(c, hp)
	p := truth.Classify(c, a.MatchesOf, tr)

	// a and b have identical contents, so hybrid aligns each to both
	// targets: inclusive ×2. c's contents changed: missing. d is new and
	// its contents are unique: it stays unaligned → true negative.
	// The predicate URI "p" is shared and aligned but has no ground
	// truth → false.
	if p.Inclusive != 2 {
		t.Errorf("inclusive = %d, want 2 (%s)", p.Inclusive, p)
	}
	if p.Missing != 1 {
		t.Errorf("missing = %d, want 1 (%s)", p.Missing, p)
	}
	if p.False != 1 {
		t.Errorf("false = %d, want 1 (%s)", p.False, p)
	}
	if p.TrueNegative != 1 {
		t.Errorf("trueneg = %d, want 1 (%s)", p.TrueNegative, p)
	}
	if p.Exact != 0 {
		t.Errorf("exact = %d, want 0 (%s)", p.Exact, p)
	}
	if p.Total() != 5 {
		t.Errorf("total = %d, want 5", p.Total())
	}
}

func TestTruthAlignedPairs(t *testing.T) {
	d := tinyGtoPdb(t)
	c := rdf.Union(d.Graphs[0], d.Graphs[1])
	tr := d.GroundTruth(0, 1)
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	aligned := truth.AlignedTruthPairs(c, hp, tr)
	if aligned <= 0 {
		t.Error("hybrid should reproduce at least some ground-truth pairs")
	}
	if aligned > tr.Size() {
		t.Errorf("aligned %d exceeds truth size %d", aligned, tr.Size())
	}
}

func TestTruthAddPanicsOnConflict(t *testing.T) {
	tr := truth.New()
	tr.Add("a", "b")
	tr.Add("a", "b") // idempotent is fine
	defer func() {
		if recover() == nil {
			t.Error("conflicting Add did not panic")
		}
	}()
	tr.Add("a", "c")
}
