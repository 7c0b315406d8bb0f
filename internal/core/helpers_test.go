package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfalign/internal/rdf"
)

// figure1V1 and figure1V2 reproduce the two versions of the evolving RDF
// graph from the paper's Figure 1 (personal information of one of the
// authors).
func figure1V1(t testing.TB) *rdf.Graph {
	t.Helper()
	b := rdf.NewBuilder("fig1-v1")
	ss := b.URI("ss")
	edUni := b.URI("ed-uni")
	b1 := b.Blank("b1")
	b2 := b.Blank("b2")
	b.TripleURI(ss, "address", b1)
	b.TripleURI(ss, "employer", edUni)
	b.TripleURI(ss, "name", b2)
	b.TripleURI(b1, "zip", b.Literal("EH8"))
	b.TripleURI(b1, "city", b.Literal("Edinburgh"))
	b.TripleURI(edUni, "name", b.Literal("University of Edinburgh"))
	b.TripleURI(edUni, "city", b.Literal("Edinburgh"))
	b.TripleURI(b2, "first", b.Literal("Slawek"))
	b.TripleURI(b2, "middle", b.Literal("Pawel"))
	b.TripleURI(b2, "last", b.Literal("Staworko"))
	return mustGraph(t, b)
}

func figure1V2(t testing.TB) *rdf.Graph {
	t.Helper()
	b := rdf.NewBuilder("fig1-v2")
	ss := b.URI("ss")
	uoe := b.URI("uoe")
	b3 := b.Blank("b3")
	b4 := b.Blank("b4")
	b.TripleURI(ss, "address", b3)
	b.TripleURI(ss, "employer", uoe)
	b.TripleURI(ss, "name", b4)
	b.TripleURI(b3, "zip", b.Literal("EH8"))
	b.TripleURI(b3, "city", b.Literal("Edinburgh"))
	b.TripleURI(uoe, "name", b.Literal("University of Edinburgh"))
	b.TripleURI(uoe, "city", b.Literal("Edinburgh"))
	b.TripleURI(b4, "first", b.Literal("Slawomir"))
	b.TripleURI(b4, "last", b.Literal("Staworko"))
	return mustGraph(t, b)
}

// figure3G1 and figure3G2 realise the evolution scenario of the paper's
// Figure 3: the equivalent (bisimilar) blank nodes b2 and b3 of G1 are
// replaced by the single blank node b4 in G2, the URI u is renamed to v,
// and b1 reappears unchanged as b5. The exact edge sets are reconstructed
// so that every claim of Examples 2–4 holds:
//
//   - b2 and b3 are bisimilar in G1 while b1 is not (Figure 2 / Example 2),
//   - Deblank aligns b2, b3 with b4 but not b1 with b5 — b1's content
//     mentions u, b5's mentions v (Example 3 / Figure 5),
//   - Hybrid aligns u with v and then b1 with b5 (Example 4 / Figure 6).
func figure3G1(t testing.TB) *rdf.Graph {
	t.Helper()
	b := rdf.NewBuilder("fig3-g1")
	w := b.URI("w")
	u := b.URI("u")
	b1 := b.Blank("b1")
	b2 := b.Blank("b2")
	b3 := b.Blank("b3")
	la := b.Literal("a")
	lb := b.Literal("b")
	b.TripleURI(w, "p", b1)
	b.TripleURI(w, "p", b2)
	b.TripleURI(w, "q", b3)
	b.TripleURI(w, "r", u)
	b.TripleURI(b1, "q", u)
	b.TripleURI(b1, "q", lb)
	b.TripleURI(b1, "r", b3)
	b.TripleURI(b2, "q", la)
	b.TripleURI(b3, "q", la)
	b.TripleURI(u, "q", la)
	return mustGraph(t, b)
}

func figure3G2(t testing.TB) *rdf.Graph {
	t.Helper()
	b := rdf.NewBuilder("fig3-g2")
	w := b.URI("w")
	v := b.URI("v")
	b5 := b.Blank("b5")
	b4 := b.Blank("b4")
	la := b.Literal("a")
	lb := b.Literal("b")
	b.TripleURI(w, "p", b5)
	b.TripleURI(w, "p", b4)
	b.TripleURI(w, "q", b4)
	b.TripleURI(w, "r", v)
	b.TripleURI(b5, "q", v)
	b.TripleURI(b5, "q", lb)
	b.TripleURI(b5, "r", b4)
	b.TripleURI(b4, "q", la)
	b.TripleURI(v, "q", la)
	return mustGraph(t, b)
}

func mustGraph(t testing.TB, b *rdf.Builder) *rdf.Graph {
	t.Helper()
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustURI(t testing.TB, g *rdf.Graph, uri string) rdf.NodeID {
	t.Helper()
	n, ok := g.FindURI(uri)
	if !ok {
		t.Fatalf("graph %s: URI %s not found", g.Name(), uri)
	}
	return n
}

func mustLiteral(t testing.TB, g *rdf.Graph, v string) rdf.NodeID {
	t.Helper()
	n, ok := g.FindLiteral(v)
	if !ok {
		t.Fatalf("graph %s: literal %q not found", g.Name(), v)
	}
	return n
}

// blankBySignature finds the unique blank node of g that has an out-edge
// (pred, lit) to the given literal; used to locate figure blank nodes
// without relying on node IDs.
func blankBySignature(t testing.TB, g *rdf.Graph, pred, lit string) rdf.NodeID {
	t.Helper()
	p, ok := g.FindURI(pred)
	if !ok {
		t.Fatalf("predicate %s not found", pred)
	}
	o, ok := g.FindLiteral(lit)
	if !ok {
		t.Fatalf("literal %q not found", lit)
	}
	found := rdf.NodeID(-1)
	g.Nodes(func(n rdf.NodeID) {
		if !g.IsBlank(n) {
			return
		}
		for _, e := range g.Out(n) {
			if e.P == p && e.O == o {
				if found != -1 {
					t.Fatalf("blank with (%s,%q) not unique", pred, lit)
				}
				found = n
			}
		}
	})
	if found == -1 {
		t.Fatalf("no blank with out-edge (%s,%q)", pred, lit)
	}
	return found
}

// randomGraph generates a random valid RDF graph. Small label pools force
// color collisions so refinement has real work to do.
func randomGraph(r *rand.Rand, name string, nURIs, nBlanks, nLits, nEdges int) *rdf.Graph {
	b := rdf.NewBuilder(name)
	var subjects, objects []rdf.NodeID
	var preds []rdf.NodeID
	for i := 0; i < nURIs; i++ {
		u := b.URI(fmt.Sprintf("u%d", i))
		subjects = append(subjects, u)
		objects = append(objects, u)
		if i < 3 {
			preds = append(preds, u)
		}
	}
	if len(preds) == 0 {
		preds = append(preds, b.URI("p0"))
		subjects = append(subjects, preds[0])
		objects = append(objects, preds[0])
	}
	for i := 0; i < nBlanks; i++ {
		bl := b.FreshBlank()
		subjects = append(subjects, bl)
		objects = append(objects, bl)
	}
	for i := 0; i < nLits; i++ {
		objects = append(objects, b.Literal(fmt.Sprintf("lit%d", i%3)))
	}
	for i := 0; i < nEdges; i++ {
		b.Triple(
			subjects[r.Intn(len(subjects))],
			preds[r.Intn(len(preds))],
			objects[r.Intn(len(objects))],
		)
	}
	g, err := b.Graph()
	if err != nil {
		panic(err)
	}
	return g
}

// randomCombined builds a random source/target pair with overlapping label
// pools, the generic input of the alignment property tests.
func randomCombined(r *rand.Rand) *rdf.Combined {
	g1 := randomGraph(r, "g1", 2+r.Intn(5), r.Intn(4), 1+r.Intn(3), 3+r.Intn(12))
	g2 := randomGraph(r, "g2", 2+r.Intn(5), r.Intn(4), 1+r.Intn(3), 3+r.Intn(12))
	return rdf.Union(g1, g2)
}

// alignmentPairs collects the alignment's pair set as a map for set
// comparisons in tests.
func alignmentPairs(a *Alignment) map[[2]rdf.NodeID]bool {
	m := map[[2]rdf.NodeID]bool{}
	a.Pairs(func(n1, n2 rdf.NodeID) { m[[2]rdf.NodeID{n1, n2}] = true })
	return m
}

// HasCrossover verifies the crossover property of partition-defined
// alignments (§3.1): whenever (n,m), (n,m') and (n',m) are aligned, so is
// (n',m'). It holds by construction for Alignment; the check exists for the
// property tests.
func (a *Alignment) HasCrossover() bool {
	type pair struct{ n1, n2 rdf.NodeID }
	pairs := map[pair]bool{}
	bySrc := map[rdf.NodeID][]rdf.NodeID{}
	byTgt := map[rdf.NodeID][]rdf.NodeID{}
	a.Pairs(func(n1, n2 rdf.NodeID) {
		pairs[pair{n1, n2}] = true
		bySrc[n1] = append(bySrc[n1], n2)
		byTgt[n2] = append(byTgt[n2], n1)
	})
	for p := range pairs {
		for _, m2 := range bySrc[p.n1] {
			for _, n2 := range byTgt[p.n2] {
				if !pairs[pair{n2, m2}] {
					return false
				}
			}
		}
	}
	return true
}

// AlignedNodeStats counts, per side, how many nodes are aligned (belong to a
// class with members on the opposite side), optionally restricted to URIs.
type AlignedNodeStats struct {
	Source int
	Target int
}

// AlignedNodes computes AlignedNodeStats for a partition: every node not
// in Unaligned_i(λ), optionally restricted to URIs.
func AlignedNodes(c *rdf.Combined, p *Partition, onlyURIs bool) AlignedNodeStats {
	un1, un2 := Unaligned(c, p)
	unaligned := make(map[rdf.NodeID]bool)
	for _, n := range append(un1, un2...) {
		unaligned[n] = true
	}
	var st AlignedNodeStats
	for i := range p.Len() {
		n := rdf.NodeID(i)
		if unaligned[n] || onlyURIs && !c.IsURI(n) {
			continue
		}
		if i < c.N1 {
			st.Source++
		} else {
			st.Target++
		}
	}
	return st
}
