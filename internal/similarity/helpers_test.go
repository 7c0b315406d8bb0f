package similarity

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// figure7G1 and figure7G2 reproduce the paper's Figure 7 (Example 5):
//
//	G1: w -r→ u, w -q→ v; u -p→ "a", u -p→ "b", u -p→ "c";
//	    v -p→ "abc", v -q→ "c"
//	G2: w′ -r→ u′, w′ -q→ v′; u′ -p→ "a", u′ -p→ "c";
//	    v′ -p→ "ac", v′ -q→ "c"
//
// yielding the paper's distances σEdit("abc","ac") = 1/3 (string edit),
// σEdit(u,u′) = 1/3 (one extra edge over neighbourhoods bounded by 3),
// σEdit(v,v′) = 1/6 and σEdit(w,w′) = 1/4 (distance propagation).
func figure7G1(t testing.TB) *rdf.Graph {
	t.Helper()
	b := rdf.NewBuilder("fig7-g1")
	w := b.URI("w")
	u := b.URI("u")
	v := b.URI("v")
	b.TripleURI(w, "r", u)
	b.TripleURI(w, "q", v)
	b.TripleURI(u, "p", b.Literal("a"))
	b.TripleURI(u, "p", b.Literal("b"))
	b.TripleURI(u, "p", b.Literal("c"))
	b.TripleURI(v, "p", b.Literal("abc"))
	b.TripleURI(v, "q", b.Literal("c"))
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func figure7G2(t testing.TB) *rdf.Graph {
	t.Helper()
	b := rdf.NewBuilder("fig7-g2")
	w := b.URI("w'")
	u := b.URI("u'")
	v := b.URI("v'")
	b.TripleURI(w, "r", u)
	b.TripleURI(w, "q", v)
	b.TripleURI(u, "p", b.Literal("a"))
	b.TripleURI(u, "p", b.Literal("c"))
	b.TripleURI(v, "p", b.Literal("ac"))
	b.TripleURI(v, "q", b.Literal("c"))
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// figure7Wordy is the Figure 7 scenario with multi-word literals, so the
// word-split characterisation of Algorithm 2 can discover the literal match
// and the full cascade (literals → v/v′ → u/u′ → w/w′) runs end to end.
func figure7Wordy(t testing.TB) (*rdf.Graph, *rdf.Graph) {
	t.Helper()
	b1 := rdf.NewBuilder("fig7w-g1")
	w := b1.URI("w")
	u := b1.URI("u")
	v := b1.URI("v")
	b1.TripleURI(w, "r", u)
	b1.TripleURI(w, "q", v)
	b1.TripleURI(u, "p", b1.Literal("alpha"))
	b1.TripleURI(u, "p", b1.Literal("beta"))
	b1.TripleURI(u, "p", b1.Literal("gamma"))
	b1.TripleURI(v, "p", b1.Literal("alpha beta gamma"))
	b1.TripleURI(v, "q", b1.Literal("gamma"))
	g1, err := b1.Graph()
	if err != nil {
		t.Fatal(err)
	}
	b2 := rdf.NewBuilder("fig7w-g2")
	w2 := b2.URI("w'")
	u2 := b2.URI("u'")
	v2 := b2.URI("v'")
	b2.TripleURI(w2, "r", u2)
	b2.TripleURI(w2, "q", v2)
	b2.TripleURI(u2, "p", b2.Literal("alpha"))
	b2.TripleURI(u2, "p", b2.Literal("gamma"))
	b2.TripleURI(v2, "p", b2.Literal("alpha gamma"))
	b2.TripleURI(v2, "q", b2.Literal("gamma"))
	g2, err := b2.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g1, g2
}

func combine(t testing.TB, g1, g2 *rdf.Graph) (*rdf.Combined, *core.Partition) {
	t.Helper()
	c := rdf.Union(g1, g2)
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	return c, hp
}

func srcNode(t testing.TB, c *rdf.Combined, uri string) rdf.NodeID {
	t.Helper()
	n, ok := c.SourceGraph().FindURI(uri)
	if !ok {
		t.Fatalf("source URI %s not found", uri)
	}
	return c.FromSource(n)
}

func tgtNode(t testing.TB, c *rdf.Combined, uri string) rdf.NodeID {
	t.Helper()
	n, ok := c.TargetGraph().FindURI(uri)
	if !ok {
		t.Fatalf("target URI %s not found", uri)
	}
	return c.FromTarget(n)
}

func srcLit(t testing.TB, c *rdf.Combined, v string) rdf.NodeID {
	t.Helper()
	n, ok := c.SourceGraph().FindLiteral(v)
	if !ok {
		t.Fatalf("source literal %q not found", v)
	}
	return c.FromSource(n)
}

func tgtLit(t testing.TB, c *rdf.Combined, v string) rdf.NodeID {
	t.Helper()
	n, ok := c.TargetGraph().FindLiteral(v)
	if !ok {
		t.Fatalf("target literal %q not found", v)
	}
	return c.FromTarget(n)
}

// randomCombined builds a small random combined graph for property tests
// (mirrors the core test helper).
func randomCombined(r *rand.Rand) *rdf.Combined {
	mk := func(name string, seed *rand.Rand) *rdf.Graph {
		b := rdf.NewBuilder(name)
		var subjects, objects []rdf.NodeID
		var preds []rdf.NodeID
		nURIs := 2 + seed.Intn(5)
		for i := 0; i < nURIs; i++ {
			u := b.URI(fmt.Sprintf("u%d", i))
			subjects = append(subjects, u)
			objects = append(objects, u)
			if i < 3 {
				preds = append(preds, u)
			}
		}
		words := []string{"alpha", "beta", "gamma", "delta", "zeta"}
		nLits := 1 + seed.Intn(4)
		for i := 0; i < nLits; i++ {
			w1 := words[seed.Intn(len(words))]
			w2 := words[seed.Intn(len(words))]
			objects = append(objects, b.Literal(w1+" "+w2))
		}
		nBlanks := seed.Intn(3)
		for i := 0; i < nBlanks; i++ {
			bl := b.FreshBlank()
			subjects = append(subjects, bl)
			objects = append(objects, bl)
		}
		nEdges := 3 + seed.Intn(12)
		for i := 0; i < nEdges; i++ {
			b.Triple(
				subjects[seed.Intn(len(subjects))],
				preds[seed.Intn(len(preds))],
				objects[seed.Intn(len(objects))],
			)
		}
		g, err := b.Graph()
		if err != nil {
			panic(err)
		}
		return g
	}
	g1 := mk("g1", r)
	g2 := mk("g2", r)
	return rdf.Union(g1, g2)
}

// matchSeq runs OverlapMatch sequentially and without a context, where it
// cannot fail.
func matchSeq[O cmp.Ordered](a, b []rdf.NodeID, theta float64, char func(rdf.NodeID) []O, dist DistFunc) *WeightedBipartite {
	h, err := OverlapMatch(a, b, theta, char, dist, core.Hooks{}, 1)
	if err != nil {
		panic(err)
	}
	return h
}

// unalignedLiterals returns the unaligned literal nodes of each side
// (Algorithm 2 lines 2–3) through the one-shot core.Unaligned.
// cloneWeighted copies a weighted partition, for tests that keep the input
// of an in-place step (Enrich, core.Engine.Propagate) to compare against.
func cloneWeighted(xi *core.Weighted) *core.Weighted {
	return &core.Weighted{P: xi.P.Clone(), W: slices.Clone(xi.W)}
}

func unalignedLiterals(c *rdf.Combined, p *core.Partition) (a, b []rdf.NodeID) {
	un1, un2 := core.Unaligned(c, p)
	for _, n := range un1 {
		if c.IsLiteral(n) {
			a = append(a, n)
		}
	}
	for _, n := range un2 {
		if c.IsLiteral(n) {
			b = append(b, n)
		}
	}
	return a, b
}

// unalignedNonLiteralsBySide returns the unaligned non-literal nodes of
// each side (Algorithm 2 lines 9–10) through the one-shot core.Unaligned.
func unalignedNonLiteralsBySide(c *rdf.Combined, p *core.Partition) (a, b []rdf.NodeID) {
	un1, un2 := core.Unaligned(c, p)
	for _, n := range un1 {
		if !c.IsLiteral(n) {
			a = append(a, n)
		}
	}
	for _, n := range un2 {
		if !c.IsLiteral(n) {
			b = append(b, n)
		}
	}
	return a, b
}
