package rdf

// Edited graphs. The edit and rebase paths (edit.go) produce a post-edit
// graph whose edge set differs from the pre-edit graph's by a sparse,
// sorted set of additions and removals. Copying the pre-edit indexes for
// every edit costs O(|E|) per delta — for an alignment session applying one
// small edit script per delta, that copy would dominate the maintenance
// step. An edited graph is therefore an immutable base CSR plus a small
// overlay: the replacement out-run of each subject an edit touched and,
// on a union rebased by RebaseUnion whose pre-edit union had built its
// recolor-dependency index, the replacement Dependents run of each key
// whose membership an edit changed. Refinement reads only the union's
// index, so an Editor.Apply result carries none: its index stays lazy, and
// a Union over it builds that range from its own out-CSR. Both are
// keyed by a node bitset, so a read of an untouched node costs one word
// test before the base run. The base's columns — heap or mapped — are
// shared, never copied or written.
//
// Version n+1's overlay is version n's merged with the edit: runs the edit
// leaves alone are shared with version n, and every earlier version stays
// valid. An edit costs O(overlay keys + churn) to merge the key lists, one
// O(N/64) copy of each bitset, and a whole copy of every run it replaces:
// the out-run of each touched subject and the dependents run of each key
// whose membership changed. The latter are not bounded by the churn — a
// popular predicate's run holds one entry per subject using it, so one
// added or removed use of it copies all of them. Once the accumulated
// churn reaches patchDenseFactor's share of the base, the next edit
// compacts instead: folded block-copies base and overlay runs into fresh
// flat columns, dependents included, so the compacting edit costs one
// memory copy of each index on top of the overlay edit. That step recurs
// every |E|/(patchDenseFactor·churn) edits or so when the edits touch new
// subjects, as a forward stream of releases does; edits that keep
// touching the same subjects (a delta followed by its inverse) replace
// runs already in the overlay and never reach it. An edit that is dense
// by itself is rebuilt instead: rebuiltGraph lists the triples through
// the overlay, merges the edit in and freezes a fresh CSR, whose
// dependents are then built lazily.
//
// A graph without an overlay — among them every union a one-shot
// alignment refines, since Union compacts edited operands — takes exactly
// the plain CSR path in Out, OutDegree and Dependents. Bulk
// readers go through Out (EachTriple and everything built on it) or
// through outCSR/depCSR, which hand an overlay graph's edges to Union, the
// N-Triples writer and Columns as flat compacted columns; snapshots
// therefore store plain CSRs.

import (
	"cmp"
	"math/bits"
	"slices"
)

// patchDenseFactor gates the overlay: once an edit plus the overlay it
// extends reaches one edge in patchDenseFactor of the base's triples, the
// graph is compacted instead. BenchmarkPatchDensity times the paths on a
// 200k-triple base, all ending with the dependents built (2-core Xeon,
// go1.24). One overlay edit against the rebuild: 0.33 against 9.5 ms at
// 0.1% churn, 5.2 against 10.3 ms at 4%, 10.4 against 12.6 ms at 7%, and
// 1.4 times the rebuild's time at 15% — so an edit this dense by itself is
// rebuilt. An overlay that smaller edits filled is folded instead, which
// adds about 1.1 ms to the edit (1.4 ms for a 0.1% edit overlaid and
// folded): the factor caps the overlay, and so what every later edit and
// bulk read pays for it, at 4% of the base.
const patchDenseFactor = 25

// overlay is the edge delta of an edited graph against its base: the
// graph's own out-CSR and dependents index fields. It is immutable once
// its graph is published.
type overlay struct {
	out runSet[Edge]
	dep runSet[NodeID]
	// runEdges is the summed length of out's runs, the overlay's share in
	// the compaction rule; ntriples is the graph's triple count.
	runEdges int
	ntriples int
}

// runSet maps a sparse set of nodes to replacement runs: runs[i] belongs
// to keys[i], and keys ascend. words is the keys' bitset, each word with
// the number of keys below it, so a miss costs one word test and a hit one
// popcount to find its run.
type runSet[T any] struct {
	words []rankWord
	keys  []NodeID
	runs  [][]T
}

// rankWord is 64 bits of a runSet's bitset and the rank of its first bit.
type rankWord struct {
	bits uint64
	rank int32
}

// get returns the replacement run of n, if the set holds one.
func (s *runSet[T]) get(n NodeID) ([]T, bool) {
	w := int(n >> 6)
	if w >= len(s.words) {
		return nil, false
	}
	word, bit := s.words[w], uint64(1)<<(uint(n)&63)
	if word.bits&bit == 0 {
		return nil, false
	}
	return s.runs[int(word.rank)+bits.OnesCount64(word.bits&(bit-1))], true
}

// with returns s with the runs of keys (ascending) replacing or joining
// its own, its bitset sized for n nodes. s is not written: its bitset and
// key list are copied, its runs shared.
func (s *runSet[T]) with(n int, keys []NodeID, runs [][]T) runSet[T] {
	if len(keys) == 0 {
		return *s
	}
	out := runSet[T]{
		words: make([]rankWord, (n+63)/64),
		keys:  make([]NodeID, 0, len(s.keys)+len(keys)),
		runs:  make([][]T, 0, len(s.keys)+len(keys)),
	}
	copy(out.words, s.words)
	i := 0
	for j, k := range keys {
		for ; i < len(s.keys) && s.keys[i] < k; i++ {
			out.keys = append(out.keys, s.keys[i])
			out.runs = append(out.runs, s.runs[i])
		}
		if i < len(s.keys) && s.keys[i] == k {
			i++
		}
		out.keys = append(out.keys, k)
		out.runs = append(out.runs, runs[j])
		out.words[k>>6].bits |= 1 << (uint(k) & 63)
	}
	out.keys = append(out.keys, s.keys[i:]...)
	out.runs = append(out.runs, s.runs[i:]...)
	rank := int32(0)
	for w := range out.words {
		out.words[w].rank = rank
		rank += int32(bits.OnesCount64(out.words[w].bits))
	}
	return out
}

// overlayOut is Out for a graph with an overlay.
func (g *Graph) overlayOut(n NodeID) []Edge {
	if run, ok := g.ov.out.get(n); ok {
		return run
	}
	if int(n) >= len(g.outIndex)-1 {
		// Appended past the base with no run of its own: empty, as long as
		// the node exists.
		_ = g.labels[n]
		return nil
	}
	return g.outEdges[g.outIndex[n]:g.outIndex[n+1]]
}

// overlayDependents is Dependents for a graph with an overlay. Its base
// index is either carried from the pre-edit graph (and marked built at
// construction) or built lazily over the overlay-aware Out, with no
// overlay runs.
func (g *Graph) overlayDependents(n NodeID) []NodeID {
	g.depOnce.Do(g.buildDependents)
	if run, ok := g.ov.dep.get(n); ok {
		return run
	}
	if int(n) >= len(g.depIndex)-1 {
		_ = g.labels[n]
		return nil
	}
	return g.depNodes[g.depIndex[n]:g.depIndex[n+1]]
}

// outCSR returns g's out-CSR as flat columns: the stored ones, or for an
// overlay graph a fresh compaction of base and overlay.
func (g *Graph) outCSR() ([]int32, []Edge) {
	if g.ov == nil {
		return g.outIndex, g.outEdges
	}
	return compacted(g.nnodes, g.outIndex, g.outEdges, &g.ov.out)
}

// depCSR is outCSR for the recolor-dependency index, which it builds
// first if it is still lazy.
func (g *Graph) depCSR() ([]int32, []NodeID) {
	g.depOnce.Do(g.buildDependents)
	if g.ov == nil {
		return g.depIndex, g.depNodes
	}
	return compacted(g.nnodes, g.depIndex, g.depNodes, &g.ov.dep)
}

// compacted lays out the runs of nodes 0..n-1 as one flat CSR: the runs of
// the base CSR (index, flat), except where s holds one, and empty past the
// base's range. The stretches of base runs between s's keys are
// block-copied, so the cost is one memory copy plus O(|s|).
func compacted[T any](n int, index []int32, flat []T, s *runSet[T]) ([]int32, []T) {
	nb := max(len(index)-1, 0)
	size := len(flat)
	for i, k := range s.keys {
		if int(k) < nb {
			size -= int(index[k+1] - index[k])
		}
		size += len(s.runs[i])
	}
	outIndex := make([]int32, n+1)
	out := make([]T, 0, size)
	next := 0 // the first node not laid out yet
	copyBase := func(hi int) {
		if top := min(hi, nb); top > next {
			shift := int32(len(out)) - index[next]
			out = append(out, flat[index[next]:index[top]]...)
			for i := next; i < top; i++ {
				outIndex[i+1] = index[i+1] + shift
			}
			next = top
		}
		for ; next < hi; next++ {
			outIndex[next+1] = int32(len(out))
		}
	}
	for i, k := range s.keys {
		copyBase(int(k))
		out = append(out, s.runs[i]...)
		outIndex[k+1] = int32(len(out))
		next = int(k) + 1
	}
	copyBase(n)
	return outIndex, out
}

// patchedGraph builds the graph equal to rebuiltGraph's: an overlay over
// old's base, or, once the overlay plus the edit reach the dense rule, a
// compaction — folded when the overlay is what makes it dense, rebuilt
// when the edit alone is. labels must extend old's labels (nodes are only
// ever appended), added/removed must satisfy mergeEdits' preconditions,
// and touched must be their subjects (touchedSubjects). With carry, a
// dependents index old has built is carried (overlaidGraph); without, the
// result's is lazy.
func patchedGraph(old *Graph, name string, labels []Label, added, removed []Triple, touched []NodeID, carry bool) *Graph {
	ovEdges := 0
	if old.ov != nil {
		ovEdges = old.ov.runEdges
	}
	edit, size := len(added)+len(removed), len(old.outEdges)+len(added)
	switch {
	case patchDenseFactor*(ovEdges+edit) < size:
		return overlaidGraph(old, name, labels, added, removed, touched, carry)
	case patchDenseFactor*edit < size:
		return folded(overlaidGraph(old, name, labels, added, removed, touched, carry))
	}
	return rebuiltGraph(old, name, labels, added, removed)
}

// folded returns the overlay graph g as a plain CSR: outCSR and depCSR
// block-copy its base and overlay runs into fresh flat columns. It is the
// compaction of an overlay that edits filled, and costs one memory copy of
// each index where rebuiltGraph re-lists every triple and leaves the
// dependents to be rebuilt. Dependents g carries (a RebaseUnion's) stay
// built; lazy ones (every Editor.Apply result's) stay lazy.
func folded(g *Graph) *Graph {
	f := &Graph{name: g.name, nnodes: g.nnodes, labels: g.labels, blanks: g.blanks, lits: g.lits}
	f.outIndex, f.outEdges = g.outCSR()
	if g.depIndex != nil {
		f.depIndex, f.depNodes = g.depCSR()
		f.depOnce.Do(func() {})
	}
	return f
}

// rebuiltGraph is the compaction of patchedGraph for an edit that is dense
// by itself: it lists old's triples, merges the edit in and freezes the
// result.
func rebuiltGraph(old *Graph, name string, labels []Label, added, removed []Triple) *Graph {
	return freeze(name, labels, mergeEdits(old.tripleList(), added, removed))
}

// overlaidGraph is the overlay path of patchedGraph, unconditionally: the
// result shares old's base columns, and its overlay is old's merged with
// the edit. With carry and old's dependents built, the result shares
// old's dependents base too and overlays the runs the edit changes;
// otherwise its dependents are lazy and build over its own Out.
func overlaidGraph(old *Graph, name string, labels []Label, added, removed []Triple, touched []NodeID, carry bool) *Graph {
	g := &Graph{
		name:     name,
		nnodes:   len(labels),
		labels:   labels,
		blanks:   old.blanks,
		lits:     old.lits,
		outIndex: old.outIndex,
		outEdges: old.outEdges,
	}
	if carry {
		g.depIndex, g.depNodes = old.depIndex, old.depNodes
	}
	for _, l := range labels[old.NumNodes():] {
		switch l.Kind {
		case Blank:
			g.blanks++
		case Literal:
			g.lits++
		}
	}
	ov := &overlay{ntriples: old.NumTriples() + len(added) - len(removed)}
	if old.ov != nil {
		ov.out = old.ov.out
		if g.depIndex != nil {
			ov.dep = old.ov.dep
		}
	}
	ov.out = ov.out.with(g.nnodes, touched, overlayOutRuns(old, added, removed, touched))
	for _, run := range ov.out.runs {
		ov.runEdges += len(run)
	}
	g.ov = ov
	if g.depIndex != nil {
		// old's dependents are built: carry them, replacing the runs whose
		// membership the edit changed. Otherwise they stay lazy.
		keys, runs := overlayDepRuns(old, g, added, removed)
		ov.dep = ov.dep.with(g.nnodes, keys, runs)
		g.depOnce.Do(func() {})
	}
	return g
}

// overlayOutRuns returns the post-edit out-run of each touched subject.
// Each run gets an array of its own: later versions share the runs they
// keep, and an array packing several would stay alive, whole, as long as
// any one of them did.
func overlayOutRuns(old *Graph, added, removed []Triple, touched []NodeID) [][]Edge {
	runs := make([][]Edge, len(touched))
	var addRun, remRun []Edge
	ai, ri := 0, 0
	for i, u := range touched {
		addRun, remRun = addRun[:0], remRun[:0]
		for ; ai < len(added) && added[ai].S == u; ai++ {
			addRun = append(addRun, Edge{P: added[ai].P, O: added[ai].O})
		}
		for ; ri < len(removed) && removed[ri].S == u; ri++ {
			remRun = append(remRun, Edge{P: removed[ri].P, O: removed[ri].O})
		}
		var base []Edge
		if int(u) < old.NumNodes() {
			base = old.Out(u)
		}
		runs[i] = mergeRun(make([]Edge, 0, len(base)+len(addRun)-len(remRun)), base, addRun, remRun, compareEdges)
	}
	return runs
}

// overlayDepRuns returns, ascending by key, the keys whose dependents
// membership the edit changes and their post-edit runs, each in an array
// of its own (see overlayOutRuns). Only the P/O nodes of added and removed
// triples can gain or lose a dependent: s joins k's run when an added
// triple mentions k and no out-edge of s in old did, and leaves it when a
// removed triple did and no out-edge of s in g still does.
func overlayDepRuns(old, g *Graph, added, removed []Triple) ([]NodeID, [][]NodeID) {
	// One event per mention, encoded k<<32 | s<<1 | add so that a plain
	// sort groups them by key, then subject.
	evs := make([]uint64, 0, 2*(len(added)+len(removed)))
	note := func(ts []Triple, add uint64) {
		for _, t := range ts {
			evs = append(evs, uint64(t.P)<<32|uint64(t.S)<<1|add)
			if t.O != t.P {
				evs = append(evs, uint64(t.O)<<32|uint64(t.S)<<1|add)
			}
		}
	}
	note(added, 1)
	note(removed, 0)
	slices.Sort(evs)
	evKey := func(ev uint64) NodeID { return NodeID(ev >> 32) }
	evSubject := func(ev uint64) NodeID { return NodeID(uint32(ev) >> 1) }
	// Keep only real membership changes, once each. A subject both adding
	// and removing mentions of k keeps one in old and in g, so neither of
	// its events survives the mentions test.
	changes := evs[:0]
	for i, ev := range evs {
		if i > 0 && evs[i-1] == ev {
			continue
		}
		k, s := evKey(ev), evSubject(ev)
		if ev&1 == 1 && (int(s) >= old.NumNodes() || !mentions(old, s, k)) ||
			ev&1 == 0 && !mentions(g, s, k) {
			changes = append(changes, ev)
		}
	}
	var keys []NodeID
	for i, ev := range changes {
		if i == 0 || evKey(changes[i-1]) != evKey(ev) {
			keys = append(keys, evKey(ev))
		}
	}
	runs := make([][]NodeID, len(keys))
	var join, leave []NodeID
	ci := 0
	for i, k := range keys {
		join, leave = join[:0], leave[:0]
		for ; ci < len(changes) && evKey(changes[ci]) == k; ci++ {
			if changes[ci]&1 == 1 {
				join = append(join, evSubject(changes[ci]))
			} else {
				leave = append(leave, evSubject(changes[ci]))
			}
		}
		var base []NodeID
		if int(k) < old.NumNodes() {
			base = old.Dependents(k)
		}
		runs[i] = mergeRun(make([]NodeID, 0, len(base)+len(join)-len(leave)), base, join, leave, cmp.Compare[NodeID])
	}
	return keys, runs
}

// mergeRun appends base \ rem ∪ add to dst. All three runs are ascending
// under compare; add and rem are disjoint, add is disjoint from base and
// rem ⊆ base. The stretches of base between consecutive edit events are
// located by binary search and block-copied, so the cost is one memory
// copy of base plus O(edits · log |base|): a per-element merge loop made
// the long dependents runs of popular predicates a measurable slice of a
// session's delta step.
func mergeRun[T comparable](dst, base, add, rem []T, compare func(a, b T) int) []T {
	bi, ai, ri := 0, 0, 0
	for ai < len(add) || ri < len(rem) {
		isAdd := ri == len(rem) || ai < len(add) && compare(add[ai], rem[ri]) < 0
		var ev T
		if isAdd {
			ev = add[ai]
		} else {
			ev = rem[ri]
		}
		j, _ := slices.BinarySearchFunc(base[bi:], ev, compare)
		dst = append(dst, base[bi:bi+j]...)
		bi += j
		if isAdd {
			dst = append(dst, ev)
			ai++
		} else {
			// rem ⊆ base, so base[bi] == ev: drop it.
			bi++
			ri++
		}
	}
	return append(dst, base[bi:]...)
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
