package rdf

// This file makes immutable graphs maintainable: an Editor applies edit
// scripts (insert/delete triple operations over label-level terms) to a
// graph, producing a new immutable Graph whose node IDs extend the old
// one's — existing nodes keep their IDs, labels introduced by the script
// are appended. Nothing is ever renumbered, so per-node state computed
// against the pre-edit graph (colorings, weights, caches) stays addressable
// against the post-edit graph; that stability is what the alignment
// session's delta maintenance is built on. RebaseUnion extends the same
// guarantee to the combined graph of an alignment.
//
// Deleting every triple of a node does not remove the node: IDs are dense
// and stable, so the node simply becomes isolated (and its label is reused
// if a later edit reintroduces it). The label maps an Editor maintains make
// term resolution O(1) per operation rather than O(|N|) per edit.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Term is one position of a label-level triple as written in an edit
// script: a label kind plus, for URIs and literals, the label value. For
// blank nodes Value holds the script-scoped name (e.g. "b0" for "_:b0") —
// graphs forget blank names, so a blank term can only denote a node
// introduced by an earlier insert in the same script.
type Term struct {
	Kind  Kind
	Value string
}

// Label converts the term to the graph label it denotes. For blanks the
// script-scoped name is dropped (all blank nodes carry the same label).
func (t Term) Label() Label {
	if t.Kind == Blank {
		return BlankLabel()
	}
	return Label{Kind: t.Kind, Value: t.Value}
}

// String renders the term in N-Triples syntax with full escaping, so a
// formatted term parses back to an equal Term (ParseTermTriple).
func (t Term) String() string {
	var sb strings.Builder
	switch t.Kind {
	case URI:
		sb.WriteByte('<')
		escapeInto(&sb, t.Value, true)
		sb.WriteByte('>')
	case Literal:
		sb.WriteByte('"')
		escapeInto(&sb, t.Value, false)
		sb.WriteByte('"')
	default:
		sb.WriteString("_:")
		sb.WriteString(t.Value)
	}
	return sb.String()
}

// TermTriple is a triple written as terms rather than node IDs.
type TermTriple struct {
	S, P, O Term
}

// String renders the triple as one N-Triples statement (without newline).
func (t TermTriple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// EditOp is one operation of an edit script: insert or delete one triple.
type EditOp struct {
	// Insert distinguishes insertion (true) from deletion (false).
	Insert bool
	// T is the affected triple, at the label level.
	T TermTriple
}

// termTripleSink captures the terms of a single parsed line.
type termTripleSink struct {
	terms   []Term
	s, p, o NodeID
	got     bool
}

func (k *termTripleSink) add(t Term) NodeID {
	k.terms = append(k.terms, t)
	return NodeID(len(k.terms) - 1)
}

func (k *termTripleSink) uriTerm(v string, owned bool) NodeID {
	if !owned {
		v = strings.Clone(v)
	}
	return k.add(Term{Kind: URI, Value: v})
}

func (k *termTripleSink) literalTerm(v string, owned bool) NodeID {
	if !owned {
		v = strings.Clone(v)
	}
	return k.add(Term{Kind: Literal, Value: v})
}

func (k *termTripleSink) blankTerm(name string, owned bool) NodeID {
	if !owned {
		name = strings.Clone(name)
	}
	return k.add(Term{Kind: Blank, Value: name})
}

func (k *termTripleSink) triple(s, p, o NodeID) {
	k.s, k.p, k.o = s, p, o
	k.got = true
}

// ParseTermTriple parses one N-Triples statement line into a TermTriple,
// using the same lexer as the full parser (same escapes, same strictness
// rules, same error positions). ok is false when the line is blank or a
// comment. lineNo is the 1-based line number reported in errors.
func ParseTermTriple(line string, lineNo int, strict bool) (t TermTriple, ok bool, err error) {
	var sink termTripleSink
	if err := parseLineInto(&sink, line, lineNo, strict); err != nil {
		return TermTriple{}, false, err
	}
	if !sink.got {
		return TermTriple{}, false, nil
	}
	return TermTriple{
		S: sink.terms[sink.s],
		P: sink.terms[sink.p],
		O: sink.terms[sink.o],
	}, true, nil
}

// Editor applies edit scripts to a graph. It keeps the graph's URI and
// literal label maps alive between calls, so resolving an operation's terms
// is O(1) instead of O(|N|) — the Editor is the mutation entry point of a
// long-lived alignment session, where rebuilding maps per delta would
// swallow the maintenance speedup.
//
// An Editor is single-threaded and tracks exactly one graph lineage: Apply
// advances it to the post-edit graph, Revert (with the result of the most
// recent Apply) moves it back. The graphs themselves stay immutable.
type Editor struct {
	g    *Graph
	uris map[string]NodeID
	lits map[string]NodeID
}

// NewEditor returns an editor positioned at g. Construction is O(|N|) (it
// indexes the labels); every Apply after that extends the graph's overlay
// without copying its indexes (see patch.go for the cost).
func NewEditor(g *Graph) *Editor {
	e := &Editor{
		g:    g,
		uris: make(map[string]NodeID, g.NumNodes()),
		lits: make(map[string]NodeID),
	}
	for i := 0; i < g.NumNodes(); i++ {
		l := g.Label(NodeID(i))
		switch l.Kind {
		case URI:
			e.uris[l.Value] = NodeID(i)
		case Literal:
			e.lits[l.Value] = NodeID(i)
		}
	}
	return e
}

// Graph returns the graph the editor is currently positioned at.
func (e *Editor) Graph() *Graph { return e.g }

// EditResult describes one applied edit transaction.
type EditResult struct {
	// Graph is the post-edit graph. Node IDs below OldNumNodes are the
	// pre-edit graph's nodes, unchanged; IDs from OldNumNodes up are nodes
	// the script introduced.
	Graph *Graph
	// OldNumNodes is the node count before the edit.
	OldNumNodes int
	// Added and Removed are the applied triple changes in post-edit node
	// IDs, each sorted by (S, P, O). Operations that cancel within the
	// script (insert then delete of the same triple) appear in neither.
	Added, Removed []Triple
	// Touched lists, sorted and deduplicated, every node whose outbound
	// edge set changed (the subjects of Added and Removed).
	Touched []NodeID

	prev             *Graph
	newURIs, newLits []string
}

// Apply runs the operations in order against the editor's current graph
// and advances the editor to the result. It is transactional: on error the
// editor and its maps are unchanged and the pre-edit graph remains current.
//
// Operation semantics are strict, so double application of a script is an
// error rather than a silent no-op: inserting a triple that is already
// present (or inserted twice) fails, as does deleting an absent triple (or
// deleting twice). An insert followed by a delete of the same triple (or
// vice versa) cancels. Errors identify the offending operation by its
// 0-based index.
//
// The result's out-edges extend the pre-edit graph's (see patch.go); its
// dependents index does not: refinement reads the union's, which
// RebaseUnion carries, so the result's own is built only if something
// asks for it.
func (e *Editor) Apply(ops []EditOp) (*EditResult, error) {
	g := e.g
	var (
		newLabels []Label
		newURIs   []string
		newLits   []string
		blanks    map[string]NodeID
		addSet    = make(map[Triple]struct{})
		delSet    = make(map[Triple]struct{})
	)
	rollback := func() {
		for _, v := range newURIs {
			delete(e.uris, v)
		}
		for _, v := range newLits {
			delete(e.lits, v)
		}
	}
	resolve := func(i int, t Term, insert bool) (NodeID, error) {
		switch t.Kind {
		case URI:
			if n, ok := e.uris[t.Value]; ok {
				return n, nil
			}
		case Literal:
			if n, ok := e.lits[t.Value]; ok {
				return n, nil
			}
		case Blank:
			if n, ok := blanks[t.Value]; ok {
				return n, nil
			}
			if !insert {
				return 0, fmt.Errorf("rdf: edit op %d: blank node _:%s does not name a node (graphs forget blank names; a blank term must be introduced by an earlier insert in the same script)", i, t.Value)
			}
		default:
			return 0, fmt.Errorf("rdf: edit op %d: invalid term kind %v", i, t.Kind)
		}
		n := NodeID(g.NumNodes() + len(newLabels))
		newLabels = append(newLabels, t.Label())
		switch t.Kind {
		case URI:
			e.uris[t.Value] = n
			newURIs = append(newURIs, t.Value)
		case Literal:
			e.lits[t.Value] = n
			newLits = append(newLits, t.Value)
		case Blank:
			if blanks == nil {
				blanks = make(map[string]NodeID)
			}
			blanks[t.Value] = n
		}
		return n, nil
	}
	for i, op := range ops {
		if op.T.S.Kind == Literal {
			rollback()
			return nil, fmt.Errorf("rdf: edit op %d: literal subject %s", i, op.T.S)
		}
		if op.T.P.Kind != URI {
			rollback()
			return nil, fmt.Errorf("rdf: edit op %d: predicate %s is not a URI", i, op.T.P)
		}
		s, err := resolve(i, op.T.S, op.Insert)
		if err == nil {
			var p, o NodeID
			if p, err = resolve(i, op.T.P, op.Insert); err == nil {
				o, err = resolve(i, op.T.O, op.Insert)
				if err == nil {
					err = stage(g, i, op, Triple{S: s, P: p, O: o}, addSet, delSet)
				}
			}
		}
		if err != nil {
			rollback()
			return nil, err
		}
	}

	labels := g.labelsAll()
	if len(newLabels) > 0 {
		// Appending may write into the old slice's spare capacity beyond its
		// length, which no view of the old graph can observe; successive
		// edits therefore share label storage instead of copying |N| labels
		// per delta.
		labels = append(labels, newLabels...)
	}
	added := sortedTripleSet(addSet)
	removed := sortedTripleSet(delSet)
	touched := touchedSubjects(added, removed)
	res := &EditResult{
		Graph:       patchedGraph(g, g.name, labels, added, removed, touched, false),
		OldNumNodes: g.NumNodes(),
		Added:       added,
		Removed:     removed,
		Touched:     touched,
		prev:        g,
		newURIs:     newURIs,
		newLits:     newLits,
	}
	e.g = res.Graph
	return res, nil
}

// stage records one resolved operation into the pending add/delete sets,
// enforcing the strict presence semantics documented on Apply.
func stage(g *Graph, i int, op EditOp, t Triple, addSet, delSet map[Triple]struct{}) error {
	present := hasTriple(g, t)
	if op.Insert {
		if _, ok := delSet[t]; ok {
			delete(delSet, t)
			return nil
		}
		if present {
			return fmt.Errorf("rdf: edit op %d: insert of triple already present: %s", i, op.T)
		}
		if _, ok := addSet[t]; ok {
			return fmt.Errorf("rdf: edit op %d: duplicate insert: %s", i, op.T)
		}
		addSet[t] = struct{}{}
		return nil
	}
	if _, ok := addSet[t]; ok {
		delete(addSet, t)
		return nil
	}
	if !present {
		return fmt.Errorf("rdf: edit op %d: delete of absent triple: %s", i, op.T)
	}
	if _, ok := delSet[t]; ok {
		return fmt.Errorf("rdf: edit op %d: duplicate delete: %s", i, op.T)
	}
	delSet[t] = struct{}{}
	return nil
}

// Revert moves the editor back to the graph preceding res. res must be the
// result of the editor's most recent Apply; reverting anything older would
// leave the label maps pointing at nodes of an abandoned lineage.
func (e *Editor) Revert(res *EditResult) {
	if e.g != res.Graph {
		panic("rdf: Editor.Revert with a result that is not the most recent Apply")
	}
	for _, v := range res.newURIs {
		delete(e.uris, v)
	}
	for _, v := range res.newLits {
		delete(e.lits, v)
	}
	e.g = res.prev
}

// hasTriple reports triple membership by binary search over the subject's
// out-CSR run.
func hasTriple(g *Graph, t Triple) bool {
	if int(t.S) >= g.NumNodes() {
		// A node the current script introduced: no pre-edit triples.
		return false
	}
	run := g.Out(t.S)
	e := Edge{P: t.P, O: t.O}
	i := sort.Search(len(run), func(i int) bool { return compareEdges(run[i], e) >= 0 })
	return i < len(run) && run[i] == e
}

// compareTriples is the (S, P, O) order all triple lists are sorted by.
func compareTriples(a, b Triple) int {
	if c := cmp.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return cmp.Compare(a.O, b.O)
}

func sortedTripleSet(set map[Triple]struct{}) []Triple {
	if len(set) == 0 {
		return nil
	}
	out := make([]Triple, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	slices.SortFunc(out, compareTriples)
	return out
}

// touchedSubjects returns the subjects of both change lists, ascending and
// deduplicated. Each list is sorted by subject, so one merge suffices.
func touchedSubjects(added, removed []Triple) []NodeID {
	out := make([]NodeID, 0, len(added)+len(removed))
	ai, ri := 0, 0
	for ai < len(added) || ri < len(removed) {
		var s NodeID
		if ri == len(removed) || (ai < len(added) && added[ai].S <= removed[ri].S) {
			s = added[ai].S
			ai++
		} else {
			s = removed[ri].S
			ri++
		}
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// mergeEdits produces base \ removed ∪ added as a fresh sorted slice.
// added and removed are sorted, duplicate-free and disjoint from each other;
// added is disjoint from base and removed ⊆ base (Apply's staging
// guarantees all three).
func mergeEdits(base, added, removed []Triple) []Triple {
	return mergeRun(make([]Triple, 0, len(base)+len(added)-len(removed)), base, added, removed, compareTriples)
}

// RebaseUnion rebuilds a combined graph after its target side advanced from
// c.TargetGraph() to res.Graph under the edit res (Editor.Apply): node IDs
// of the edited graph extend the old target's. The result is identical —
// labels, triples, node IDs — to Union(c.SourceGraph(), res.Graph), but
// does not copy the union's indexes: every existing union node keeps its
// ID, the edited graph's new nodes take the IDs following the old union's,
// and the edit, shifted into union IDs, extends c's overlay, dependents
// included when c has built them. That costs
// O(overlay keys + churn + N/64) plus a whole copy of each replaced run —
// the changed dependents runs of popular predicates among them — and, once
// the overlay reaches the dense rule, one compaction (see patch.go).
func RebaseUnion(c *Combined, res *EditResult) *Combined {
	g2 := res.Graph
	off := NodeID(c.N1)
	labels := c.Graph.labelsAll()
	if g2.NumNodes() > c.N2 {
		labels = append(labels, g2.labelsAll()[c.N2:]...)
	}
	shift := func(ts []Triple) []Triple {
		out := make([]Triple, len(ts))
		for i, t := range ts {
			out[i] = Triple{S: t.S + off, P: t.P + off, O: t.O + off}
		}
		return out
	}
	touched := make([]NodeID, len(res.Touched))
	for i, s := range res.Touched {
		touched[i] = s + off
	}
	name := c.g1.name + "⊎" + g2.name
	return &Combined{
		Graph: patchedGraph(c.Graph, name, labels, shift(res.Added), shift(res.Removed), touched, true),
		N1:    c.N1,
		N2:    g2.NumNodes(),
		g1:    c.g1,
		g2:    g2,
	}
}
