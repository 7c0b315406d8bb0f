package delta

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

func parse(t testing.TB, doc, name string) *rdf.Graph {
	t.Helper()
	g, err := rdf.ParseNTriplesString(doc, name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func hybridOf(t testing.TB, c *rdf.Combined) *core.Partition {
	t.Helper()
	p, _, _ := (&core.Engine{}).Hybrid(c, core.NewInterner())
	return p
}

func TestDeltaSelfIsEmpty(t *testing.T) {
	doc := "<a> <p> <b> .\n<b> <p> \"x\" .\n<a> <q> _:r .\n_:r <p> \"y\" .\n"
	g1 := parse(t, doc, "v1")
	g2 := parse(t, doc, "v2")
	c := rdf.Union(g1, g2)
	d := Compute(c, hybridOf(t, c))
	if len(d.Removed) != 0 || len(d.Added) != 0 {
		t.Errorf("self delta not empty: %s", d.Summary())
	}
	if d.Retained != g1.NumTriples() {
		t.Errorf("retained = %d, want %d", d.Retained, g1.NumTriples())
	}
}

func TestDeltaFigure1(t *testing.T) {
	g1 := parse(t, `
<ss> <employer> <ed-uni> .
<ed-uni> <name> "University of Edinburgh" .
<ss> <name> _:b2 .
_:b2 <first> "Slawek" .
_:b2 <middle> "Pawel" .
`, "v1")
	g2 := parse(t, `
<ss> <employer> <uoe> .
<uoe> <name> "University of Edinburgh" .
<ss> <name> _:b4 .
_:b4 <first> "Slawomir" .
`, "v2")
	c := rdf.Union(g1, g2)
	d := Compute(c, hybridOf(t, c))
	// Hybrid aligns ss and ed-uni/uoe, so the employer and university
	// triples are retained; the name records differ (blank unaligned),
	// so their triples churn.
	if d.Retained != 2 {
		t.Errorf("retained = %d, want 2 (employer + university name)", d.Retained)
	}
	// Removed: ss-name-b2, b2-first, b2-middle. Added: ss-name-b4, b4-first.
	if len(d.Removed) != 3 || len(d.Added) != 2 {
		t.Errorf("delta = %s, want removed=3 added=2", d.Summary())
	}
	text := d.Format(g1, g2)
	if !strings.Contains(text, `- ⊥ middle "Pawel"`) {
		t.Errorf("Format missing the removed middle-name triple:\n%s", text)
	}
	if !strings.Contains(text, `+ ⊥ first "Slawomir"`) {
		t.Errorf("Format missing the added first-name triple:\n%s", text)
	}
}

// TestDeltaConservation: retained + removed = |E1| and retained + added =
// |E2|, and a finer partition can only shrink the retained set.
func TestDeltaConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := randomGraph(r, "d1")
		g2 := randomGraph(r, "d2")
		c := rdf.Union(g1, g2)
		in := core.NewInterner()
		trivial := core.TrivialPartition(c.Graph, in)
		hybrid := hybridOf(t, c)
		dt := Compute(c, trivial)
		dh := Compute(c, hybrid)
		for _, d := range []*Delta{dt, dh} {
			if d.Retained+len(d.Removed) != g1.NumTriples() {
				return false
			}
			if d.Retained+len(d.Added) != g2.NumTriples() {
				return false
			}
		}
		// Hybrid aligns at least as much as trivial.
		return dh.Retained >= dt.Retained
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func randomGraph(r *rand.Rand, name string) *rdf.Graph {
	b := rdf.NewBuilder(name)
	var subjects, objects []rdf.NodeID
	var preds []rdf.NodeID
	for i := 0; i < 2+r.Intn(4); i++ {
		u := b.URI(string(rune('a' + i)))
		subjects = append(subjects, u)
		objects = append(objects, u)
		if i < 2 {
			preds = append(preds, u)
		}
	}
	for i := 0; i < r.Intn(3); i++ {
		bl := b.FreshBlank()
		subjects = append(subjects, bl)
		objects = append(objects, bl)
	}
	for i := 0; i < 1+r.Intn(3); i++ {
		objects = append(objects, b.Literal(string(rune('x'+i))))
	}
	for i := 0; i < 2+r.Intn(10); i++ {
		b.Triple(subjects[r.Intn(len(subjects))], preds[r.Intn(len(preds))], objects[r.Intn(len(objects))])
	}
	return b.MustGraph()
}

func TestDeltaOutputsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g1 := randomGraph(r, "s1")
	g2 := randomGraph(r, "s2")
	c := rdf.Union(g1, g2)
	d := Compute(c, core.TrivialPartition(c.Graph, core.NewInterner()))
	isSorted := func(ts []rdf.Triple) bool {
		for i := 1; i < len(ts); i++ {
			a, b := ts[i-1], ts[i]
			if a.S > b.S || (a.S == b.S && (a.P > b.P || (a.P == b.P && a.O > b.O))) {
				return false
			}
		}
		return true
	}
	if !isSorted(d.Removed) || !isSorted(d.Added) {
		t.Error("delta listings must be sorted")
	}
}
