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

// UnionIn is Union with the big pointer-free columns (the union's CSR
// adjacencies, including the lazily built ones) drawn from alloc; nil means
// the Go heap. The union's out-CSR is the two operands' CSRs concatenated
// (an edited operand's compacted first, see outCSR): g1's index and edges
// are copied as they are, g2's follow with node IDs offset by |N1| and
// edge positions by |E1|. Every G2 subject sorts after every G1 node, so
// the result is already in (S, P, O) order and nothing is sorted. The
// union's dependents index, built on its first Dependents call, is
// concatenated the same way from its operands' (see unionDependents): an
// overlay-free operand builds its own once and keeps it, so the unions of
// consecutive releases, which share one, count it once.
func UnionIn(alloc Allocator, g1, g2 *Graph) *Combined {
	n1, n2 := g1.NumNodes(), g2.NumNodes()
	labels := make([]Label, 0, n1+n2)
	labels = append(labels, g1.labelsAll()...)
	labels = append(labels, g2.labelsAll()...)
	g := &Graph{name: g1.name + "⊎" + g2.name, nnodes: n1 + n2, labels: labels, alloc: alloc}
	g.blanks = g1.blanks + g2.blanks
	g.lits = g1.lits + g2.lits
	g.srcURIs, g.srcLits = g1.DistinctLabels()
	g.operands = [2]*Graph{g1, g2}

	index1, edges1 := g1.outCSR()
	index2, edges2 := g2.outCSR()
	e1 := len(edges1)
	g.outIndex = g.allocIndex(n1 + n2 + 1)
	copy(g.outIndex, index1) // empty for a zero-value g1, whose one entry is 0
	for i := 1; i <= n2; i++ {
		g.outIndex[n1+i] = index2[i] + int32(e1)
	}
	g.outEdges = g.allocEdges(e1 + len(edges2))
	copy(g.outEdges, edges1)
	off := NodeID(n1)
	for i, e := range edges2 {
		g.outEdges[e1+i] = Edge{P: e.P + off, O: e.O + off}
	}
	return &Combined{
		Graph: g,
		N1:    n1,
		N2:    n2,
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
