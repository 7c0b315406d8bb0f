package rdf

// Spliced graph construction. The edit and rebase paths (edit.go) produce a
// post-edit graph whose edge set differs from the base graph's by a sparse,
// sorted set of additions and removals. Rebuilding the out-CSR from a
// merged triple list (freezeSorted) costs O(|E|) passes per edit — for an
// alignment session applying one small edit script per delta, those passes
// dominate the whole maintenance step. splicedGraph instead splices the new
// graph's indexes out of the base graph's: runs of consecutive unaffected
// nodes are block-copied, and only the touched nodes' runs are recomputed,
// so the cost is one block copy of each index plus O(churn) run merges.
// A dense edit takes the rebuild instead (patchDenseFactor), which lists
// the base graph's triples from its CSR, merges the edit in and refreezes;
// BenchmarkPatchDensity measures where the two paths cross.
//
// The result is field-for-field identical to the freezeSorted graph — the
// property tests in patch_test.go assert that — including the lazily built
// recolor-dependency index, which is carried over eagerly when the base
// graph has built it: the worklist refinement engine reads Dependents every
// round, and letting each post-edit graph rebuild the index lazily would
// reintroduce the O(|E|) pass the splice exists to avoid. The in/predocc
// indexes stay lazy; only the contextual/adaptive refinement variants read
// them.

import "slices"

// patchDenseFactor gates the splice: an edit touching a sizable fraction of
// the graph gains nothing over the straight rebuild (and the per-event
// bookkeeping would cost more than the counting passes it replaces).
// BenchmarkPatchDensity puts the crossover near 4% churn (200k triples,
// 2-core Xeon, go1.24): splice and rebuild tie there, and at 7% the
// rebuild is ~30% faster. A factor of 25 rebuilds from 4% up.
const patchDenseFactor = 25

// patchedGraph builds the graph equal to rebuiltGraph's, choosing between
// the full rebuild and the index splice by edit density. labels must extend
// old's labels (nodes are only ever appended), added/removed must satisfy
// mergeEdits' preconditions, and touched must be their subjects
// (touchedSubjects).
func patchedGraph(old *Graph, name string, labels []Label, added, removed []Triple, touched []NodeID) *Graph {
	if patchDenseFactor*(len(added)+len(removed)) >= old.NumTriples()+len(added) {
		return rebuiltGraph(old, name, labels, added, removed)
	}
	return splicedGraph(old, name, labels, added, removed, touched)
}

// rebuiltGraph is the dense path of patchedGraph: it lists old's triples
// from the out-CSR, merges the edit in and freezes the result.
func rebuiltGraph(old *Graph, name string, labels []Label, added, removed []Triple) *Graph {
	return freezeSorted(name, labels, mergeEdits(old.tripleList(), added, removed))
}

// splicedGraph is the splice path of patchedGraph, unconditionally.
func splicedGraph(old *Graph, name string, labels []Label, added, removed []Triple, touched []NodeID) *Graph {
	g := &Graph{
		name:   name,
		nnodes: len(labels),
		labels: labels,
		blanks: old.blanks,
		lits:   old.lits,
	}
	for _, l := range labels[old.NumNodes():] {
		switch l.Kind {
		case Blank:
			g.blanks++
		case Literal:
			g.lits++
		}
	}
	patchOut(g, old, added, removed, touched)
	patchDependents(g, old, added, removed)
	return g
}

// patchOut builds g's out-CSR by splicing old's: block copies for untouched
// subjects, a three-way sorted merge for each touched one.
func patchOut(g, old *Graph, added, removed []Triple, touched []NodeID) {
	n := g.NumNodes()
	nOld := old.NumNodes()
	idx := make([]int32, n+1)
	edges := make([]Edge, 0, old.NumTriples()+len(added)-len(removed))
	prev := 0
	// flush emits nodes [prev, hi): old runs block-copied with a constant
	// index shift, nodes past old's range (necessarily untouched here) empty.
	flush := func(hi int) {
		cp := hi
		if cp > nOld {
			cp = nOld
		}
		if cp > prev {
			delta := int32(len(edges)) - old.outIndex[prev]
			edges = append(edges, old.outEdges[old.outIndex[prev]:old.outIndex[cp]]...)
			for i := prev; i < cp; i++ {
				idx[i+1] = old.outIndex[i+1] + delta
			}
			prev = cp
		}
		for i := prev; i < hi; i++ {
			idx[i+1] = int32(len(edges))
		}
		if hi > prev {
			prev = hi
		}
	}
	var addRun, remRun []Edge
	ai, ri := 0, 0
	for _, u := range touched {
		flush(int(u))
		addRun, remRun = addRun[:0], remRun[:0]
		for ai < len(added) && added[ai].S == u {
			addRun = append(addRun, Edge{P: added[ai].P, O: added[ai].O})
			ai++
		}
		for ri < len(removed) && removed[ri].S == u {
			remRun = append(remRun, Edge{P: removed[ri].P, O: removed[ri].O})
			ri++
		}
		var oldRun []Edge
		if int(u) < nOld {
			oldRun = old.outEdges[old.outIndex[u]:old.outIndex[u+1]]
		}
		edges = mergeEdgeRun(edges, oldRun, addRun, remRun)
		idx[u+1] = int32(len(edges))
		prev = int(u) + 1
	}
	flush(n)
	g.outIndex = idx
	g.outEdges = edges
}

// mergeEdgeRun appends base \ rem ∪ add to dst. All three runs are sorted by
// (P, O); add is disjoint from base and rem ⊆ base (the staging guarantees
// of Editor.Apply, per subject).
func mergeEdgeRun(dst []Edge, base, add, rem []Edge) []Edge {
	ai, ri := 0, 0
	for _, e := range base {
		for ai < len(add) && compareEdges(add[ai], e) < 0 {
			dst = append(dst, add[ai])
			ai++
		}
		if ri < len(rem) && rem[ri] == e {
			ri++
			continue
		}
		dst = append(dst, e)
	}
	return append(dst, add[ai:]...)
}

// patchDependents carries old's recolor-dependency index over to g, patched
// for the edit. A no-op when old never built the index (it stays lazy).
// Exactness: the run of node k must equal the sorted deduplicated subjects
// mentioning k in g. Only the P/O nodes of added and removed triples can
// gain or lose dependents; a removal drops subject s from k's run only if no
// surviving out-edge of s mentions k, which the membership scan over the
// already-built g.Out(s) decides.
func patchDependents(g, old *Graph, added, removed []Triple) {
	if old.depIndex == nil {
		return
	}
	n := g.NumNodes()
	nOld := old.NumNodes()
	adds := make(map[NodeID][]NodeID)
	rems := make(map[NodeID][]NodeID)
	// Triples arrive sorted by (S, P, O), so per-key subject lists build
	// ascending and deduplicate against their last element.
	note := func(m map[NodeID][]NodeID, k, s NodeID) {
		l := m[k]
		if len(l) > 0 && l[len(l)-1] == s {
			return
		}
		m[k] = append(l, s)
	}
	collect := func(ts []Triple, m map[NodeID][]NodeID) {
		for _, t := range ts {
			note(m, t.P, t.S)
			if t.O != t.P {
				note(m, t.O, t.S)
			}
		}
	}
	collect(added, adds)
	collect(removed, rems)
	affected := make([]NodeID, 0, len(adds)+len(rems))
	for k := range adds {
		affected = append(affected, k)
	}
	for k := range rems {
		if _, ok := adds[k]; !ok {
			affected = append(affected, k)
		}
	}
	slices.Sort(affected)

	idx := make([]int32, n+1)
	nodes := make([]NodeID, 0, len(old.depNodes)+2*len(added))
	prev := 0
	flush := func(hi int) {
		cp := hi
		if cp > nOld {
			cp = nOld
		}
		if cp > prev {
			delta := int32(len(nodes)) - old.depIndex[prev]
			nodes = append(nodes, old.depNodes[old.depIndex[prev]:old.depIndex[cp]]...)
			for i := prev; i < cp; i++ {
				idx[i+1] = old.depIndex[i+1] + delta
			}
			prev = cp
		}
		for i := prev; i < hi; i++ {
			idx[i+1] = int32(len(nodes))
		}
		if hi > prev {
			prev = hi
		}
	}
	for _, k := range affected {
		flush(int(k))
		var oldRun []NodeID
		if int(k) < nOld {
			oldRun = old.depNodes[old.depIndex[k]:old.depIndex[k+1]]
		}
		nodes = mergeDepRun(nodes, g, k, oldRun, adds[k], rems[k])
		idx[k+1] = int32(len(nodes))
		prev = int(k) + 1
	}
	flush(n)
	g.depIndex = idx
	g.depNodes = nodes
}

// mergeDepRun appends node k's patched dependent run to dst. base, add and
// rem are ascending and deduplicated; add subjects are dependents of k in g
// by construction (their inserted triple survives), rem subjects are members
// of base whose continued membership the scan over g.Out decides.
func mergeDepRun(dst []NodeID, g *Graph, k NodeID, base, add, rem []NodeID) []NodeID {
	ai, ri := 0, 0
	for _, s := range base {
		for ai < len(add) && add[ai] < s {
			dst = append(dst, add[ai])
			ai++
		}
		inAdd := ai < len(add) && add[ai] == s
		if inAdd {
			ai++
		}
		if ri < len(rem) && rem[ri] == s {
			ri++
			if !inAdd && !mentions(g, s, k) {
				continue
			}
		}
		dst = append(dst, s)
	}
	return append(dst, add[ai:]...)
}

// mentions reports whether any out-edge of s in g names k as predicate or
// object.
func mentions(g *Graph, s, k NodeID) bool {
	for _, e := range g.Out(s) {
		if e.P == k || e.O == k {
			return true
		}
	}
	return false
}
