package rdf

import "fmt"

// This file defines the pluggable column-storage contract of Graph. A Graph
// is, at bottom, a set of frozen columns: per-node labels (kind + value),
// the out-adjacency CSR — the graph's edge list — and optionally the
// reverse-dependency CSR. Graphs built by a Builder, a parse, Union or an
// edit keep every column in Go slices. FromColumns is the one constructor
// over stored columns: a snapshot decoded onto the heap or the read-only
// mmap view of internal/snapshot serves its columns through the Columns
// interface without copying them again. FromColumns validates them, so
// every engine invariant (sorted adjacency, IDs in range) holds regardless
// of where the bytes live.

// Columns is the narrow accessor a Graph needs from its backing storage.
// Implementations must be immutable after construction and safe for
// concurrent readers. The CSR accessors return slices that the caller will
// alias for the graph's lifetime; for mapped implementations they point
// directly into the mapping, so the implementation must stay reachable (and
// unclosed) for as long as any derived Graph is in use.
type Columns interface {
	// GraphName returns the diagnostic name of the stored graph.
	GraphName() string
	// NumNodes returns the node count.
	NumNodes() int
	// NumTriples returns the triple count.
	NumTriples() int
	// Label returns the label of node n. Implementations should avoid
	// allocating: the returned value may share its string bytes with the
	// backing storage.
	Label(n NodeID) Label
	// Kinds returns the per-node label-kind column, indexed by node ID.
	Kinds() []Kind
	// OutCSR returns the out-adjacency CSR: node n's out edges are
	// edges[index[n]:index[n+1]], sorted strictly ascending by (P, O).
	OutCSR() (index []int32, edges []Edge)
	// DepCSR returns the reverse-dependency CSR of Dependents, or (nil,
	// nil) when it was not stored (the graph rebuilds it lazily).
	DepCSR() (index []int32, nodes []NodeID)
	// Close releases the backing storage. The graph built over these
	// columns (and anything aliasing its slices or label strings) must no
	// longer be used afterwards.
	Close() error
}

// sliceColumns is the default slice-backed Columns implementation: a view
// over an ordinary heap Graph's frozen columns.
type sliceColumns struct {
	g     *Graph
	kinds []Kind
}

func (s *sliceColumns) GraphName() string { return s.g.name }
func (s *sliceColumns) NumNodes() int     { return s.g.NumNodes() }
func (s *sliceColumns) NumTriples() int   { return s.g.NumTriples() }
func (s *sliceColumns) Label(n NodeID) Label {
	return s.g.Label(n)
}
func (s *sliceColumns) Kinds() []Kind {
	if s.kinds == nil {
		kinds := make([]Kind, s.g.NumNodes())
		for i := range kinds {
			kinds[i] = s.g.Label(NodeID(i)).Kind
		}
		s.kinds = kinds
	}
	return s.kinds
}
func (s *sliceColumns) OutCSR() ([]int32, []Edge)   { return s.g.outCSR() }
func (s *sliceColumns) DepCSR() ([]int32, []NodeID) { return s.g.depCSR() }
func (s *sliceColumns) Close() error                { return nil }

// Columns returns a Columns view over the graph's frozen storage — the
// slice-backed default implementation of the interface. Serialisers use it
// to write any graph (heap, mapped or edited) through one code path. The
// view's DepCSR forces the lazy dependency CSR; on an edited graph both
// CSR accessors return a fresh compaction of base and overlay, so a
// snapshot stores plain columns.
func (g *Graph) Columns() Columns {
	if g.cols != nil {
		return g.cols
	}
	return &sliceColumns{g: g}
}

// FromColumns builds a Graph served directly by c, validating the freeze
// invariants the engines rely on for memory safety (IDs in range, CSR
// monotone and spanning, runs strictly ascending by (P, O)) in one linear
// scan. It does not re-check the RDF label-uniqueness conditions of
// Validate: stored columns are trusted to come from a graph that was
// validated when it was built.
func FromColumns(c Columns) (*Graph, error) {
	n := c.NumNodes()
	if n > 1<<31-2 {
		return nil, fmt.Errorf("rdf: column graph has %d nodes, exceeding the NodeID range", n)
	}
	kinds := c.Kinds()
	if len(kinds) != n {
		return nil, fmt.Errorf("rdf: column graph kind column has %d entries for %d nodes", len(kinds), n)
	}
	outIndex, outEdges := c.OutCSR()
	if len(outIndex) != n+1 {
		return nil, fmt.Errorf("rdf: column out index has %d entries for %d nodes", len(outIndex), n)
	}
	if len(outEdges) != c.NumTriples() {
		return nil, fmt.Errorf("rdf: column out edges hold %d entries for %d triples", len(outEdges), c.NumTriples())
	}
	if outIndex[0] != 0 || int(outIndex[n]) != len(outEdges) {
		return nil, fmt.Errorf("rdf: column out index spans [%d,%d], want [0,%d]", outIndex[0], outIndex[n], len(outEdges))
	}
	for i := 0; i < n; i++ {
		if outIndex[i+1] < outIndex[i] {
			return nil, fmt.Errorf("rdf: column out index decreases at node %d", i)
		}
		prev := Edge{P: -1, O: -1}
		for _, e := range outEdges[outIndex[i]:outIndex[i+1]] {
			if e.P < 0 || int(e.P) >= n || e.O < 0 || int(e.O) >= n {
				return nil, fmt.Errorf("rdf: column edge (%d,%d,%d) references a node outside [0,%d)", i, e.P, e.O, n)
			}
			if e.P < prev.P || (e.P == prev.P && e.O <= prev.O) {
				return nil, fmt.Errorf("rdf: column out run for node %d not strictly ascending by (P,O)", i)
			}
			prev = e
		}
	}
	g := &Graph{
		name:     c.GraphName(),
		nnodes:   n,
		kinds:    kinds,
		cols:     c,
		outIndex: outIndex,
		outEdges: outEdges,
	}
	for _, k := range kinds {
		switch k {
		case Blank:
			g.blanks++
		case Literal:
			g.lits++
		case URI:
		default:
			return nil, fmt.Errorf("rdf: column label kind %d unknown", k)
		}
	}
	if depIndex, depNodes := c.DepCSR(); depIndex != nil || depNodes != nil {
		if err := validateCSR("dependency", depIndex, depNodes, n); err != nil {
			return nil, err
		}
		g.depIndex = depIndex
		g.depNodes = depNodes
		g.depOnce.Do(func() {}) // mark built: Dependents serves the stored CSR
	}
	return g, nil
}

// validateCSR checks the structural invariants the engines rely on: a
// monotone index covering nodes exactly, and strictly ascending in-range
// runs.
func validateCSR(what string, index []int32, nodes []NodeID, n int) error {
	if len(index) != n+1 {
		return fmt.Errorf("rdf: column %s index has %d entries for %d nodes", what, len(index), n)
	}
	if index[0] != 0 || int(index[n]) != len(nodes) {
		return fmt.Errorf("rdf: column %s index spans [%d,%d], want [0,%d]", what, index[0], index[n], len(nodes))
	}
	for i := 0; i < n; i++ {
		if index[i+1] < index[i] {
			return fmt.Errorf("rdf: column %s index decreases at node %d", what, i)
		}
		prev := NodeID(-1)
		for _, m := range nodes[index[i]:index[i+1]] {
			if m <= prev || int(m) >= n {
				return fmt.Errorf("rdf: column %s run for node %d not strictly ascending in range", what, i)
			}
			prev = m
		}
	}
	return nil
}

// Allocator supplies backing storage for a graph's large pointer-free
// columns. A nil Allocator means the Go heap (plain make). The out-of-core
// alignment mode passes an allocator whose arrays live in unlinked
// memory-mapped scratch files, so the union graph's columns do not count
// against the heap limit. Element types are pointer-free, so the garbage
// collector never needs to see the backing memory; the allocator's owner
// must outlive every graph built over its allocations.
type Allocator interface {
	AllocEdges(n int) []Edge
	AllocIndex(n int) []int32
	AllocNodes(n int) []NodeID
}

// labelsAll returns the full label column as a slice, materialising it on
// the heap for column-backed graphs (Union and Editor need a flat column;
// the string values still share their bytes with the backing storage).
func (g *Graph) labelsAll() []Label {
	if g.labels != nil || g.nnodes == 0 {
		return g.labels
	}
	labels := make([]Label, g.nnodes)
	for i := range labels {
		labels[i] = g.cols.Label(NodeID(i))
	}
	return labels
}

func (g *Graph) allocEdges(n int) []Edge {
	if g.alloc != nil {
		return g.alloc.AllocEdges(n)
	}
	return make([]Edge, n)
}

func (g *Graph) allocIndex(n int) []int32 {
	if g.alloc != nil {
		return g.alloc.AllocIndex(n)
	}
	return make([]int32, n)
}

func (g *Graph) allocNodes(n int) []NodeID {
	if g.alloc != nil {
		return g.alloc.AllocNodes(n)
	}
	return make([]NodeID, n)
}
