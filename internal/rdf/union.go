package rdf

// Combined is the disjoint union G = G1 ⊎ G2 of the source and target graphs
// being aligned (paper §2.1, §3). Node identifiers of G1 are preserved;
// identifiers of G2 are offset by |N1|. Because node identifiers are
// independent of labels, the union never confuses two nodes that happen to
// carry the same URI or literal in both versions — which is exactly why the
// paper adopts the triple-graph model.
type Combined struct {
	// Graph is the union graph. It is generally not a valid RDF graph
	// (labels repeat across sides); per-side validity was checked when
	// the sides were built.
	*Graph
	// N1 and N2 are the node counts of the source and target graphs.
	N1, N2 int
	g1, g2 *Graph
}

// Side identifies which operand of the union a node came from.
type Side uint8

const (
	// Source marks nodes of G1.
	Source Side = 1
	// Target marks nodes of G2.
	Target Side = 2
)

// Union builds the disjoint union of g1 and g2.
func Union(g1, g2 *Graph) *Combined { return UnionIn(nil, g1, g2) }

// UnionIn is Union with the big pointer-free columns (the combined triple
// list and CSR adjacencies, including the lazily built ones) drawn from
// alloc; nil means the Go heap. Each side's triples stream through
// EachTriple, so a mapped operand never materialises its flat triple list.
// The concatenation of the two sides is already sorted by (S, P, O) —
// every G2 subject is offset past every G1 node — and each side is
// duplicate-free with disjoint ID ranges, so the union freezes with a
// linear CSR pass and no sort.
func UnionIn(alloc Allocator, g1, g2 *Graph) *Combined {
	off := NodeID(g1.NumNodes())
	labels := make([]Label, 0, g1.NumNodes()+g2.NumNodes())
	labels = append(labels, g1.labelsAll()...)
	labels = append(labels, g2.labelsAll()...)
	nt := g1.NumTriples() + g2.NumTriples()
	var triples []Triple
	if alloc != nil {
		triples = alloc.AllocTriples(nt)[:0]
	} else {
		triples = make([]Triple, 0, nt)
	}
	g1.EachTriple(func(t Triple) bool {
		triples = append(triples, t)
		return true
	})
	g2.EachTriple(func(t Triple) bool {
		triples = append(triples, Triple{S: t.S + off, P: t.P + off, O: t.O + off})
		return true
	})
	name := g1.name + "⊎" + g2.name
	g := freezeSortedIn(alloc, name, labels, triples)
	g.srcURIs, g.srcLits = g1.DistinctLabels()
	return &Combined{
		Graph: g,
		N1:    g1.NumNodes(),
		N2:    g2.NumNodes(),
		g1:    g1,
		g2:    g2,
	}
}

// SideOf reports which operand node n belongs to.
func (c *Combined) SideOf(n NodeID) Side {
	if int(n) < c.N1 {
		return Source
	}
	return Target
}

// Source returns the original source graph G1.
func (c *Combined) SourceGraph() *Graph { return c.g1 }

// Target returns the original target graph G2.
func (c *Combined) TargetGraph() *Graph { return c.g2 }

// ToSource maps a combined-graph node back to its ID in G1. It panics if n
// is a target-side node.
func (c *Combined) ToSource(n NodeID) NodeID {
	if int(n) >= c.N1 {
		panic("rdf: ToSource on target-side node")
	}
	return n
}

// ToTarget maps a combined-graph node back to its ID in G2. It panics if n
// is a source-side node.
func (c *Combined) ToTarget(n NodeID) NodeID {
	if int(n) < c.N1 {
		panic("rdf: ToTarget on source-side node")
	}
	return n - NodeID(c.N1)
}

// FromSource maps a G1 node ID into the combined graph (the identity).
func (c *Combined) FromSource(n NodeID) NodeID { return n }

// FromTarget maps a G2 node ID into the combined graph.
func (c *Combined) FromTarget(n NodeID) NodeID { return n + NodeID(c.N1) }
