// Package rdf implements the triple-graph data model of Buneman & Staworko,
// "RDF Graph Alignment with Bisimulation" (PVLDB 2016), Section 2.1.
//
// An RDF graph is usually presented as a set of (subject, predicate, object)
// triples over URIs, literals and blank nodes. Because graph alignment works
// with two graphs that may contain the same URI, the paper generalises this
// to a *triple graph*: nodes are abstract identifiers, every node carries a
// label (a URI, a literal value, or the distinguished blank label), and an
// edge is a triple of node identifiers (s, p, o) — the predicate position is
// itself a node so that it can participate in bisimulation.
//
// The package provides:
//
//   - Graph: an immutable, validated triple graph with CSR adjacency,
//   - Builder: incremental construction with get-or-create label lookup,
//   - Union: the disjoint union G1 ⊎ G2 used by every alignment method,
//   - N-Triples parsing and serialisation (see ntriples.go),
//   - Stats: the node/edge counts reported in the paper's Figures 9 and 12.
package rdf

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// NodeID identifies a node inside one Graph. IDs are dense indexes
// 0..NumNodes-1, so algorithms can use slices instead of maps for per-node
// state. IDs are meaningless across graphs except through Union, which
// offsets the second graph's IDs by the first graph's node count.
type NodeID int32

// Kind distinguishes the three label kinds of the RDF data model.
type Kind uint8

const (
	// URI labels identify resources. In a valid RDF graph no two nodes
	// share a URI label.
	URI Kind = iota
	// Literal labels carry data strings. In a valid RDF graph no two
	// nodes share a literal label, and literal nodes appear only in the
	// object position.
	Literal
	// Blank is the single distinguished label ⊥ carried by every blank
	// node. Blank nodes have no persistent identity; the alignment
	// methods of this repository exist largely to recover one.
	Blank
)

// String returns the conventional name of the kind.
func (k Kind) String() string {
	switch k {
	case URI:
		return "uri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Label is a node label: a kind plus, for URIs and literals, the label
// value. All blank nodes carry the same label (Kind == Blank, empty Value):
// the local names used in serialisations such as "_:b1" are scoping devices,
// not part of the data model (paper §2.1).
type Label struct {
	Kind  Kind
	Value string
}

// URILabel constructs a URI label.
func URILabel(v string) Label { return Label{Kind: URI, Value: v} }

// LiteralLabel constructs a literal label.
func LiteralLabel(v string) Label { return Label{Kind: Literal, Value: v} }

// BlankLabel returns the distinguished blank label.
func BlankLabel() Label { return Label{Kind: Blank} }

// String renders the label using the paper's typography conventions:
// URIs bare, literals quoted, blanks as ⊥.
func (l Label) String() string {
	switch l.Kind {
	case URI:
		return l.Value
	case Literal:
		return fmt.Sprintf("%q", l.Value)
	default:
		return "⊥"
	}
}

// Triple is one edge of a triple graph. All three positions are nodes of the
// same graph; the predicate node P participates in alignment like any other
// node.
type Triple struct {
	S, P, O NodeID
}

// Edge is the outbound half-edge (p, o) of a triple, i.e. one element of
// out_G(s) = {(p, o) | (s, p, o) ∈ E_G} (paper §2.3).
type Edge struct {
	P, O NodeID
}

// Graph is an immutable triple graph. Construct one with a Builder, by
// parsing N-Triples, by Union, or over stored columns — a snapshot, heap or
// mapped — with FromColumns. The zero Graph is empty and usable.
//
// Labels are unique within each side: no two nodes of an RDF graph share a
// URI label, and no two share a literal label (§2.1). Builder enforces this
// by construction — URI and Literal are get-or-create lookups in its term
// dictionaries — so every graph it makes holds it: the N-Triples and Turtle
// parsers and archive snapshots all build through
// a Builder. Editor keeps it across edits through its label maps.
// FromColumns and the snapshot readers trust their input to come from such
// a graph and do not re-check it; Validate does. A Union holds it within
// each operand's node range but not across them.
//
// Edges: the out-CSR (outIndex/outEdges) is the graph's one stored edge
// list. Node n's run outEdges[outIndex[n]:outIndex[n+1]] is out_G(n) sorted
// by (P, O), so walking the runs in node order yields the triples in
// (S, P, O) order (EachTriple). Triples copies that order into a fresh
// slice for tests and small tools. A graph made by an edit (Editor.Apply,
// RebaseUnion) shares its pre-edit graph's CSR as an immutable base and
// carries the edited runs in an overlay (patch.go); Out, OutDegree and
// Dependents read through it, and every other reader goes through them or
// through one flat compaction.
//
// Storage: the default Graph keeps every column in Go slices (labels, the
// out-CSR, the lazy adjacencies). A Graph built by FromColumns leaves
// labels nil and serves label lookups through its Columns backing
// (store.go); the CSR columns are cached slice views into that backing, so
// the hot Out/Dependents paths are identical for both storages.
type Graph struct {
	name   string
	nnodes int
	labels []Label // nil for column-backed graphs; use Label(n)/Kind(n)
	kinds  []Kind  // per-node label kinds for column-backed graphs
	cols   Columns // non-nil for column-backed graphs
	// alloc, when non-nil, supplies backing storage for a union's out-CSR
	// and for the columns the lazy builders fill (see Allocator).
	alloc Allocator

	// CSR adjacency, the edge list: out edges of node n are
	// outEdges[outIndex[n]:outIndex[n+1]], sorted by (P, O). With an
	// overlay it is the base: runs the overlay holds replace it, and nodes
	// past its range without a run are empty.
	outIndex []int32
	outEdges []Edge
	ov       *overlay // nil unless the graph was made by an edit

	// Reverse adjacency, built lazily on first In() call (only the
	// context-aware refinement variants need it).
	inOnce  sync.Once
	inIndex []int32
	inEdges []Edge

	// Predicate-occurrence adjacency, built lazily on first PredOcc()
	// call (only the adaptive refinement variant needs it).
	poOnce  sync.Once
	poIndex []int32
	poEdges []Edge

	// Recolor-dependency adjacency, the worklist refinement engine's
	// frontier index (Dependents). A graph read from a snapshot serves the
	// stored one. Any other graph builds it on the first Dependents call
	// and keeps it, a union by concatenating its operands' (operands),
	// except that RebaseUnion carries the pre-edit union's, if built, with
	// overlay runs (patch.go). Editor.Apply results carry none.
	depOnce  sync.Once
	depIndex []int32
	depNodes []NodeID
	// operands are, on a graph made by UnionIn until its dependents are
	// built, the two graphs whose dependents buildDependents concatenates.
	operands [2]*Graph

	blanks int // number of blank-labelled nodes
	lits   int // number of literal-labelled nodes

	// srcURIs and srcLits are, on a graph made by UnionIn, the source
	// operand's distinct URI and literal counts (see DistinctLabels); zero
	// otherwise.
	srcURIs, srcLits int
}

// Name returns the diagnostic name given at construction (e.g. a version
// identifier). It plays no role in alignment.
func (g *Graph) Name() string { return g.name }

// NumNodes returns |N_G|.
func (g *Graph) NumNodes() int { return g.nnodes }

// NumTriples returns |E_G|.
func (g *Graph) NumTriples() int {
	if g.ov != nil {
		return g.ov.ntriples
	}
	return len(g.outEdges)
}

// NumBlanks returns |Blanks(G)|.
func (g *Graph) NumBlanks() int { return g.blanks }

// NumLiterals returns |Literals(G)|.
func (g *Graph) NumLiterals() int { return g.lits }

// NumURIs returns |URIs(G)|.
func (g *Graph) NumURIs() int { return g.nnodes - g.blanks - g.lits }

// DistinctLabels returns how many distinct URI and literal labels to expect
// among g's nodes, for presizing label maps. Labels are unique within a
// graph, so for one built by a Builder the counts are exact. A union's
// labels repeat across its sides; for the graph Union or UnionIn makes the
// counts are the source operand's, since most target labels repeat a
// source label.
func (g *Graph) DistinctLabels() (uris, literals int) {
	if g.srcURIs > 0 || g.srcLits > 0 {
		return g.srcURIs, g.srcLits
	}
	return g.NumURIs(), g.NumLiterals()
}

// Label returns the label of node n. It panics if n is out of range, which
// always indicates a programming error (node IDs are never user input). On
// a column-backed graph the returned value may share its string bytes with
// the backing storage (zero-copy); it is valid until Close.
func (g *Graph) Label(n NodeID) Label {
	if g.labels != nil {
		return g.labels[n]
	}
	return g.cols.Label(n)
}

// Kind returns the label kind of node n without materialising the label
// value.
func (g *Graph) Kind(n NodeID) Kind {
	if g.labels != nil {
		return g.labels[n].Kind
	}
	return g.kinds[n]
}

// IsLiteral reports whether node n carries a literal label.
func (g *Graph) IsLiteral(n NodeID) bool { return g.Kind(n) == Literal }

// IsBlank reports whether node n is blank.
func (g *Graph) IsBlank(n NodeID) bool { return g.Kind(n) == Blank }

// IsURI reports whether node n carries a URI label.
func (g *Graph) IsURI(n NodeID) bool { return g.Kind(n) == URI }

// Close releases the graph's backing storage, if any: for a mapped graph
// (FromColumns over a snapshot mapping) it unmaps the file, after which the
// graph — and any label strings or derived graphs aliasing the mapping —
// must no longer be used. For ordinary heap graphs Close is a no-op.
func (g *Graph) Close() error {
	if g.cols != nil {
		return g.cols.Close()
	}
	return nil
}

// Out returns the outbound neighbourhood out_G(n) as a slice sorted by
// (P, O). The slice aliases the graph's internal storage and must not be
// modified.
func (g *Graph) Out(n NodeID) []Edge {
	if g.ov != nil {
		return g.overlayOut(n)
	}
	return g.outEdges[g.outIndex[n]:g.outIndex[n+1]]
}

// OutDegree returns |out_G(n)|.
func (g *Graph) OutDegree(n NodeID) int {
	if g.ov != nil {
		return len(g.overlayOut(n))
	}
	return int(g.outIndex[n+1] - g.outIndex[n])
}

// In returns the inbound neighbourhood of node n as (p, s) half-edges — for
// every triple (s, p, n), the pair {P: p, O: s} — sorted by (P, O). The
// paper's core methods use outbound neighbourhoods only (§2.3); In supports
// the context-aware refinement variants sketched in §3.3 and §6. The slice
// aliases lazily built internal storage and must not be modified.
func (g *Graph) In(n NodeID) []Edge {
	g.inOnce.Do(g.buildIn)
	return g.inEdges[g.inIndex[n]:g.inIndex[n+1]]
}

// InDegree returns the number of triples with object n.
func (g *Graph) InDegree(n NodeID) int {
	g.inOnce.Do(g.buildIn)
	return int(g.inIndex[n+1] - g.inIndex[n])
}

func (g *Graph) buildIn() {
	g.inIndex, g.inEdges = g.regroup(
		func(t Triple) NodeID { return t.O },
		func(t Triple) Edge { return Edge{P: t.P, O: t.S} })
}

// regroup builds a CSR over the triples regrouped by key: node k's run
// holds val(t) for every triple t with key(t) == k, sorted by (P, O).
func (g *Graph) regroup(key func(Triple) NodeID, val func(Triple) Edge) ([]int32, []Edge) {
	index := g.allocIndex(g.nnodes + 1)
	g.EachTriple(func(t Triple) bool {
		index[key(t)+1]++
		return true
	})
	for i := 1; i <= g.nnodes; i++ {
		index[i] += index[i-1]
	}
	edges := g.allocEdges(g.NumTriples())
	cursor := make([]int32, g.nnodes)
	copy(cursor, index[:g.nnodes])
	g.EachTriple(func(t Triple) bool {
		k := key(t)
		edges[cursor[k]] = val(t)
		cursor[k]++
		return true
	})
	// Runs fill in subject order; sort each by (P, O) for determinism (the
	// entries of one run are distinct, so the order is unique).
	for n := 0; n < g.nnodes; n++ {
		slices.SortFunc(edges[index[n]:index[n+1]], compareEdges)
	}
	return index, edges
}

// compareEdges is the (P, O) order of adjacency runs.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return cmp.Compare(a.O, b.O)
}

// PredOcc returns the predicate occurrences of node n as (s, o) pairs — for
// every triple (s, n, o), the pair {P: s, O: o} — sorted by (P, O). It
// supports the refinement variant §5.1 suggests for URIs used only in
// predicate position ("one that incorporates the colors of the subject and
// the object in any triple that uses the given predicate"). The slice
// aliases lazily built internal storage and must not be modified.
func (g *Graph) PredOcc(n NodeID) []Edge {
	g.poOnce.Do(g.buildPredOcc)
	return g.poEdges[g.poIndex[n]:g.poIndex[n+1]]
}

// PredOccDegree returns the number of triples with predicate n.
func (g *Graph) PredOccDegree(n NodeID) int {
	g.poOnce.Do(g.buildPredOcc)
	return int(g.poIndex[n+1] - g.poIndex[n])
}

func (g *Graph) buildPredOcc() {
	g.poIndex, g.poEdges = g.regroup(
		func(t Triple) NodeID { return t.P },
		func(t Triple) Edge { return Edge{P: t.S, O: t.O} })
}

// Dependents returns the subjects whose outbound neighbourhood mentions n:
// every s with a triple (s, n, o) or (s, p, n), deduplicated and sorted
// ascending. This is the reverse dependency relation of bisimulation
// recoloring — recolor_λ(s) reads λ(p) and λ(o) for each (p, o) ∈ out(s), so
// after λ(n) changes, exactly the nodes in Dependents(n) can recolor
// differently. The worklist refinement engine uses it to seed each round's
// dirty frontier. The first call on a graph without a stored or carried
// index builds one and keeps it (see buildDependents); a union's is its
// operands' concatenated. The slice aliases that internal storage and must
// not be modified.
func (g *Graph) Dependents(n NodeID) []NodeID {
	if g.ov != nil {
		return g.overlayDependents(n)
	}
	g.depOnce.Do(g.buildDependents)
	return g.depNodes[g.depIndex[n]:g.depIndex[n+1]]
}

// buildDependents builds the recolor-dependency CSR: a union's from its
// operands' (unionDependents), any other graph's with one counting pass
// over Out. Graphs that carry one from storage or from their pre-edit
// graph mark depOnce done at construction instead.
func (g *Graph) buildDependents() {
	index := g.allocIndex(g.nnodes + 1)
	if g.operands[0] != nil {
		g.depNodes = g.unionDependents(index)
		g.operands = [2]*Graph{}
	} else {
		scratch := make([]int32, g.nnodes)
		g.countDependents(0, g.nnodes, index, scratch)
		g.depNodes = g.allocNodes(int(index[g.nnodes]))
		g.fillDependents(0, g.nnodes, index, g.depNodes, scratch)
	}
	g.depIndex = index
}

// unionDependents fills index and returns the nodes of a union's
// recolor-dependency CSR. The union is disjoint, so the runs of G1's nodes
// are G1's dependents and those of G2's nodes are G2's shifted by |N1|. An
// overlay-free operand contributes the index it stores or has built,
// building it first if it is lazy; it keeps it, since later unions over it
// (the next release's alignment, its archive append, its snapshot write)
// read it again. An operand with an overlay, and every operand of a union
// drawing from an Allocator, contributes its range built from the union's
// own flat out-CSR instead and keeps nothing: an edited graph's index
// would need overlay runs, and an out-of-core union keeps its columns off
// the heap.
func (g *Graph) unionDependents(index []int32) []NodeID {
	var from [2][]NodeID // an operand's own dependents, or nil to build its range
	var scratch []int32
	lo := 0
	for i, op := range g.operands {
		hi := lo + op.nnodes
		if op.ov == nil && g.alloc == nil {
			opIndex, opNodes := op.depCSR()
			for k := 1; k <= op.nnodes; k++ {
				index[lo+k] = index[lo] + opIndex[k]
			}
			from[i] = opNodes
		} else {
			if scratch == nil {
				scratch = make([]int32, g.nnodes)
			}
			g.countDependents(lo, hi, index, scratch)
		}
		lo = hi
	}
	nodes := g.allocNodes(int(index[g.nnodes]))
	lo = 0
	for i, op := range g.operands {
		hi := lo + op.nnodes
		if from[i] == nil {
			g.fillDependents(lo, hi, index, nodes, scratch)
		} else {
			dst, off := nodes[index[lo]:index[hi]], NodeID(lo)
			for j, s := range from[i] {
				dst[j] = s + off
			}
		}
		lo = hi
	}
	return nodes
}

// countDependents is the counting pass of a dependents CSR over the
// subjects lo..hi-1, whose out-edges name nodes in [lo, hi) only (the whole
// graph, or a union operand's range): it sets index[k+1] for every k in
// [lo, hi) to index[k] plus the number of distinct subjects naming k.
// index[lo] holds the range's first position and index[lo+1:hi+1] zeros.
// scratch[lo:hi] must be zero; it records the last subject counted per
// key, plus one.
func (g *Graph) countDependents(lo, hi int, index, scratch []int32) {
	for s := lo; s < hi; s++ {
		mark := int32(s + 1)
		for _, e := range g.Out(NodeID(s)) {
			if scratch[e.P] != mark {
				scratch[e.P] = mark
				index[e.P+1]++
			}
			if scratch[e.O] != mark {
				scratch[e.O] = mark
				index[e.O+1]++
			}
		}
	}
	for k := lo + 1; k <= hi; k++ {
		index[k] += index[k-1]
	}
}

// fillDependents is the placing pass after countDependents: it writes each
// key's subjects, ascending and once each, into nodes from index[k] on.
// Subjects are visited in ascending order, so a repeat is always the entry
// just written for that key. scratch[lo:hi] becomes the per-key cursors.
func (g *Graph) fillDependents(lo, hi int, index []int32, nodes []NodeID, scratch []int32) {
	copy(scratch[lo:hi], index[lo:hi])
	put := func(k, s NodeID) {
		c := scratch[k]
		if c == index[k] || nodes[c-1] != s {
			nodes[c] = s
			scratch[k] = c + 1
		}
	}
	for s := lo; s < hi; s++ {
		for _, e := range g.Out(NodeID(s)) {
			put(e.P, NodeID(s))
			put(e.O, NodeID(s))
		}
	}
}

// Triples returns the edge list sorted by (S, P, O) as a fresh slice. It
// copies the out-CSR on every call, so it is meant for tests, examples and
// small tools; algorithms walk EachTriple or Out instead.
func (g *Graph) Triples() []Triple { return g.tripleList() }

// tripleList is Triples for the package's own transient lists (the dense
// edit path and the canonical writer order).
func (g *Graph) tripleList() []Triple {
	ts := make([]Triple, 0, g.NumTriples())
	g.EachTriple(func(t Triple) bool {
		ts = append(ts, t)
		return true
	})
	return ts
}

// EachTriple calls yield for every triple in (S, P, O) order, stopping
// early when yield returns false. It walks Out node by node and allocates
// nothing.
func (g *Graph) EachTriple(yield func(Triple) bool) {
	for n := 0; n < g.nnodes; n++ {
		for _, e := range g.Out(NodeID(n)) {
			if !yield(Triple{S: NodeID(n), P: e.P, O: e.O}) {
				return
			}
		}
	}
}

// Nodes calls f for every node in increasing ID order.
func (g *Graph) Nodes(f func(NodeID)) {
	for n := 0; n < g.nnodes; n++ {
		f(NodeID(n))
	}
}

// FindURI returns the node labelled with the given URI, if any. It is a
// linear scan intended for tests and small tools; algorithms should carry
// node IDs instead. The boolean reports whether the node exists.
func (g *Graph) FindURI(uri string) (NodeID, bool) {
	for i := 0; i < g.nnodes; i++ {
		if l := g.Label(NodeID(i)); l.Kind == URI && l.Value == uri {
			return NodeID(i), true
		}
	}
	return -1, false
}

// FindLiteral is the literal counterpart of FindURI.
func (g *Graph) FindLiteral(v string) (NodeID, bool) {
	for i := 0; i < g.nnodes; i++ {
		if l := g.Label(NodeID(i)); l.Kind == Literal && l.Value == v {
			return NodeID(i), true
		}
	}
	return -1, false
}

// freeze finalises a graph under construction: it builds the out-CSR from
// a triple list in any order, duplicates allowed, given as one or more
// chunks (a parallel parse hands over one per block). A counting sort by
// subject places the triples straight into outEdges; each subject's run is
// then sorted by (P, O) and cleared of repeats in place (E_G is a set of
// triples), so freeze allocates nothing beyond the two CSR columns, and a
// list already in (S, P, O) order, as the dense edit path makes, costs
// linear passes only. labels must already be final. The graph does not
// keep the triples.
func freeze(name string, labels []Label, chunks ...[]Triple) *Graph {
	n := len(labels)
	g := &Graph{name: name, nnodes: n, labels: labels}
	index := make([]int32, n+1)
	total := 0
	for _, triples := range chunks {
		for _, t := range triples {
			index[t.S+1]++
		}
		total += len(triples)
	}
	for i := 1; i <= n; i++ {
		index[i] += index[i-1]
	}
	// index[s] is subject s's cursor while placing: it ends at the start
	// of s+1's run.
	edges := make([]Edge, total)
	for _, triples := range chunks {
		for _, t := range triples {
			edges[index[t.S]] = Edge{P: t.P, O: t.O}
			index[t.S]++
		}
	}
	// Sort and deduplicate run by run, compacting leftwards: the write
	// position never overtakes the run being read. index[s] becomes the
	// compacted end of s's run, then everything shifts up one slot.
	w, from := 0, 0
	for s := 0; s < n; s++ {
		run := edges[from:index[s]]
		from = int(index[s])
		sortRun(run)
		for i, e := range run {
			if i > 0 && e == run[i-1] {
				continue
			}
			edges[w] = e
			w++
		}
		index[s] = int32(w)
	}
	copy(index[1:], index[:n])
	index[0] = 0
	g.outIndex, g.outEdges = index, edges[:w]
	for _, l := range labels {
		switch l.Kind {
		case Blank:
			g.blanks++
		case Literal:
			g.lits++
		}
	}
	return g
}

// sortRun sorts an out-run by (P, O), compared as one packed integer. Runs
// are mostly short and often already in order, which insertion sort
// handles in one pass; long runs go to the library sort.
func sortRun(run []Edge) {
	if len(run) > 32 {
		slices.SortFunc(run, compareEdges)
		return
	}
	key := func(e Edge) uint64 { return uint64(e.P)<<32 | uint64(uint32(e.O)) }
	for i := 1; i < len(run); i++ {
		e := run[i]
		k, j := key(e), i
		for ; j > 0 && key(run[j-1]) > k; j-- {
			run[j] = run[j-1]
		}
		run[j] = e
	}
}

// Validate checks the RDF-graph conditions of §2.1 on top of the triple
// graph model: no two nodes share a URI or literal label, literal nodes
// occur only as objects, and predicates are not blank. It returns the first
// violation found, or nil. Builder.Graph checks only the triple conditions
// (validateTriples): its dictionaries already make labels unique. Union
// does not re-validate (a union of two RDF graphs is legitimately *not* an
// RDF graph, since labels may repeat across sides).
func (g *Graph) Validate() error {
	seenURI := make(map[string]NodeID, g.NumURIs())
	seenLit := make(map[string]NodeID, g.NumLiterals())
	for i := 0; i < g.nnodes; i++ {
		n := NodeID(i)
		l := g.Label(n)
		switch l.Kind {
		case URI:
			if m, ok := seenURI[l.Value]; ok {
				return fmt.Errorf("rdf: graph %q: nodes %d and %d share URI label %s", g.name, m, n, l.Value)
			}
			seenURI[l.Value] = n
		case Literal:
			if m, ok := seenLit[l.Value]; ok {
				return fmt.Errorf("rdf: graph %q: nodes %d and %d share literal label %q", g.name, m, n, l.Value)
			}
			seenLit[l.Value] = n
		}
	}
	return g.validateTriples()
}

// validateTriples checks Validate's triple conditions: no literal subject
// and no blank or literal predicate.
func (g *Graph) validateTriples() error {
	var verr error
	g.EachTriple(func(t Triple) bool {
		switch {
		case g.Kind(t.P) == Blank:
			verr = fmt.Errorf("rdf: graph %q: triple (%d,%d,%d) has blank predicate", g.name, t.S, t.P, t.O)
		case g.Kind(t.P) == Literal:
			verr = fmt.Errorf("rdf: graph %q: triple (%d,%d,%d) has literal predicate %s", g.name, t.S, t.P, t.O, g.Label(t.P))
		case g.Kind(t.S) == Literal:
			verr = fmt.Errorf("rdf: graph %q: triple (%d,%d,%d) has literal subject %s", g.name, t.S, t.P, t.O, g.Label(t.S))
		}
		return verr == nil
	})
	return verr
}
