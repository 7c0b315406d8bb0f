package core

import (
	"math"
	"slices"

	"rdfalign/internal/rdf"
)

// This file implements the incremental worklist refinement engine, the one
// loop that runs refinement rounds: Engine.Refine's partition fixpoint and
// Engine.Propagate's weighted one (§4.5: the same recoloring plus a reweight
// of the same nodes).
//
// Recoloring every node of the recolor set x and cloning the whole
// partition on every iteration wastes work: after the first few rounds only
// a shrinking frontier of nodes can still change color — the observation
// behind efficient bisimulation partition refinement (Paige–Tarjan-style
// splitting; cf. the distributed signature refinement of Schätzle et al.
// the paper cites in §5.3). The worklist engine exploits the locality of
// recolor_λ: the color assigned to n depends only on λ(n) and on λ(p), λ(o)
// for the outbound half-edges (p, o) ∈ out(n), so after a round changes the
// colors of a set C, only the nodes of x with an out-edge into C —
// rdf.Graph.Dependents(C) ∩ x — can recolor differently next round. The
// extended recolorings (extend.go) also read inbound half-edges and
// predicate occurrences; for them the frontier widens to every node of x
// that shares a triple with a changed node.
//
// Two properties make the frontier exact rather than merely sound:
//
//   - Stable-tree collapse (Interner.Composite): when a node's pair set —
//     outbound pairs, plus the tagged in-edge and predicate-occurrence
//     pairs of an extended recoloring — is unchanged, recoloring returns
//     its current color unchanged, even though the node's own color
//     changed last round. A node therefore never re-dirties itself; only
//     neighbourhood changes do, and a frontier node whose neighbourhood
//     did not actually change keeps its color.
//   - First-round seeding: the first round recolors all of x, establishing
//     the invariant that every x node's color is a composite whose stored
//     pair set equals its current one.
//
// Consequently a worklist round computes exactly the partition a full
// recoloring of x (the one-step refinement BisimRefine_X of §3.2) would:
// dirty nodes are interned in ascending node order (the frontier is kept
// sorted), matching a full round's iteration order over an ascending x, so
// the two agree color for color (the tests keep the full-recolor loop as
// the oracle).
//
// Stabilisation cannot be detected by an empty frontier alone: the
// documented grouping-equivalence semantics (see Engine.Refine) allow a
// recolored node to keep changing color while the induced grouping is
// stable — on a cycle of blank nodes every round renames the cycle's class
// to a fresh color forever. The engine therefore buffers each round's
// changes and asks whether applying them would merely rename classes
// (renameCheck); if so the round is discarded and the pre-round
// partition returned, exactly as a full-partition grouping-equivalence scan
// would decide — but in O(|changes|) instead of O(|N|) per round.
//
// All the loop's state lives in a Workspace (workspace.go) that its owner
// keeps across runs: the recolor-set and frontier marks and the renameCheck
// witnesses are generation-stamped, so a run resets them in O(1) instead
// of allocating arrays sized by the graph or the interner, and the class
// sizes renameCheck reads come from the workspace's class index, which
// every applied round updates.

// change records one recolored node within a round, before application.
type change struct {
	n        rdf.NodeID
	old, new Color
}

// renameCheck decides whether applying a round's changes would yield a
// grouping-equivalent partition (λ ≡ λ', §2.2) — the incremental
// counterpart of equivalentColors. Colors on nodes outside the change set
// are untouched, so any witnessing bijection must fix them; equivalence
// therefore holds iff the changes are a consistent, injective renaming of
// wholly-vacated classes onto wholly-fresh ones:
//
//  1. all members of an old class move to the same new color,
//  2. no node outside the change set keeps an old color that moved
//     (otherwise the class split),
//  3. no node outside the change set already holds a target color
//     (otherwise classes merged), and the renaming is injective.
//
// The forward/backward renaming witnesses live in two small open-addressing
// maps keyed by color (colorMap), sized by the colors a round touches
// rather than the interner, emptied by a generation stamp and kept in the
// Workspace across rounds and runs, so the check is O(|changes|) per round
// with no allocation beyond amortised growth — long fixpoints with
// churning change lists (a chain of blanks renames its whole suffix every
// round) would otherwise spend more on building per-round witness maps
// than on recoloring. Class sizes come from the workspace's class index,
// which holds the pre-round partition while the check runs.
type renameCheck struct {
	from colorMap // old color → its new color, and the changes vacating it
	to   colorMap // new color → its old color
}

// equivalent reports the grouping-equivalence decision for one round.
func (rc *renameCheck) equivalent(changes []change, ix *classIndex) bool {
	if len(changes) == 0 {
		return true
	}
	rc.from.reset()
	rc.to.reset()
	for _, ch := range changes {
		f, seen := rc.from.slot(ch.old)
		if !seen {
			f.val, f.count = ch.new, 0
			b, seenNew := rc.to.slot(ch.new)
			if seenNew && b.val != ch.old {
				return false // two classes merged into one new color
			}
			b.val = ch.old
		} else if f.val != ch.new {
			return false // class split across two new colors
		}
		f.count++
	}
	for _, ch := range changes {
		if ix.size(ch.old) != rc.from.find(ch.old).count {
			return false // a node outside the change set keeps old
		}
		movedFromNew := int32(0) // changes vacating the target color
		if f := rc.from.find(ch.new); f != nil {
			movedFromNew = f.count
		}
		if ix.size(ch.new) != movedFromNew {
			return false // a node outside the change set already holds new
		}
	}
	return true
}

// dedupFrontier copies x into out, dropping duplicate node IDs while
// preserving first-occurrence order (a full round's interning order); the
// caller reset mark.
func dedupFrontier(x []rdf.NodeID, mark *stampSet, out []rdf.NodeID) []rdf.NodeID {
	out = slices.Grow(out[:0], len(x))
	for _, n := range x {
		if mark.add(int(n)) {
			out = append(out, n)
		}
	}
	return out
}

// nextFrontier computes the next round's dirty set: every node of x with an
// outbound half-edge into a node whose color (or, for the weighted engine,
// weight) just changed. ext widens it to every node of x sharing a triple
// with a changed node m — the subjects, predicates and objects of m's
// outbound, inbound and predicate-occurrence half-edges — which covers
// every color the extended recoloring reads. The result is sorted
// ascending so interning stays deterministic; the caller reset mark.
func nextFrontier(g *rdf.Graph, changed []rdf.NodeID, ext bool, inX, mark *stampSet, out []rdf.NodeID) []rdf.NodeID {
	out = out[:0]
	add := func(s rdf.NodeID) {
		if inX.has(int(s)) && mark.add(int(s)) {
			out = append(out, s)
		}
	}
	for _, m := range changed {
		for _, s := range g.Dependents(m) {
			add(s)
		}
		if ext {
			for _, es := range [...][]rdf.Edge{g.Out(m), g.In(m), g.PredOcc(m)} {
				for _, e := range es {
					add(e.P)
					add(e.O)
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// wchange records one reweighted node within a weighted round.
type wchange struct {
	n rdf.NodeID
	w float64
}

// worklist runs a refinement fixpoint over the recolor set x on cur, which
// the caller owns and which is refined in place, and returns the number of
// applied rounds. On error cur is left partly refined. The workspace's
// class index follows cur through every applied round (it is rebuilt
// first if it followed another partition), and its scratch is reused.
//
// With w == nil it is the partition fixpoint behind Engine.Refine: engines
// with extended options recolor through recolorOpts and widen the frontier
// (nextFrontier), a round that at most renames classes is discarded, and
// rounds report as StageRefine. With a weight column it is the weighted
// fixpoint behind Engine.Propagate: a reweight pass over the same frontier
// follows the recoloring (always the paper's default outbound one), a node
// re-enters the frontier when a node its outbound neighbourhood mentions
// changed color or weight at all (δ > 0) — not merely by ≥ ε — so skipped
// nodes are exactly the ones a full weighted round would recompute
// unchanged, the final round is applied (the refined ξ is returned, not the
// pre-round one), and rounds report as StagePropagate. ε governs only
// termination: the weighted loop stops once a round moves no weight by ε or
// more and at most renames color classes. tracked, when non-nil, receives
// every node an applied round recolors or reweights that the workspace's
// tracked set (reset by the caller) does not hold yet.
//
// The gather step — external-merge grouping on spillable storage, extended
// recoloring, or plain recoloring — is chosen once per run, so the gather
// loops carry no per-node branch, and the one rule the modes differ in
// (discard or apply the quiescent round) is decided at the stop check.
func (e *Engine) worklist(ws *Workspace, g *rdf.Graph, cur *Partition, w []float64, x []rdf.NodeID, eps float64, tracked *[]rdf.NodeID) (int, error) {
	colors := cur.colors
	ix := &ws.ix
	if !ix.valid || ix.p != cur {
		// A partition no workspace step produced (a caller's own, or a
		// fresh workspace): one O(N) pass to index it. Only class sizes
		// are read here, so the side split is immaterial.
		ws.track(cur, len(colors))
	}
	ws.inX.reset(len(colors))
	for _, n := range x {
		ws.inX.add(int(n))
	}
	ws.mark.reset(len(colors))
	dirty := dedupFrontier(x, &ws.mark, ws.frontier)
	changes := slices.Grow(ws.changes[:0], len(dirty))
	changedNodes := slices.Grow(ws.changedNodes[:0], len(dirty))
	wchanges := ws.wchanges[:0]
	defer func() { // hand the grown buffers back for the next run
		ws.frontier, ws.changes, ws.wchanges, ws.changedNodes = dirty, changes, wchanges, changedNodes
	}()
	stage, ext := StageRefine, e.useOpts()
	if w != nil {
		stage, ext = StagePropagate, false
	}
	spillDir, spill := cur.in.spillDir()
	spill = spill && !ext
	for iter := 0; ; iter++ {
		if err := e.Hooks.Err(); err != nil {
			return 0, err
		}
		if e.MaxDepth > 0 && iter >= e.MaxDepth {
			return iter, nil // k-bounded: exactly MaxDepth applied rounds
		}
		if iter > maxIterations {
			return 0, &NoFixpointError{Stage: stage, Round: iter}
		}
		changes = changes[:0]
		if spill && len(dirty) >= extMergeThreshold {
			// Out-of-core storage: group this round's unseen signatures by
			// external merge sort in the spill directory (extsort.go)
			// instead of buffering them in the heap. Bit-identical to the
			// in-memory paths below; small frontiers (the deep tail of a
			// fixpoint) fall through to them.
			var err error
			changes, err = extMergeRound(g, cur, dirty, changes, spillDir)
			if err != nil {
				return 0, err
			}
		} else if ext {
			for _, n := range dirty {
				var c Color
				c, ws.scratch = recolorOpts(g, cur, n, e.Opt, ws.scratch)
				if c != colors[n] {
					changes = append(changes, change{n: n, old: colors[n], new: c})
				}
			}
		} else {
			for _, n := range dirty {
				var c Color
				c, ws.scratch = recolor(g, cur, n, ws.scratch)
				if c != colors[n] {
					changes = append(changes, change{n: n, old: colors[n], new: c})
				}
			}
		}
		maxDelta := 0.0
		if w != nil {
			wchanges = wchanges[:0]
			for _, n := range dirty {
				nw := reweight(g, w, n)
				if d := math.Abs(nw - w[n]); d > 0 {
					wchanges = append(wchanges, wchange{n: n, w: nw})
					if d > maxDelta {
						maxDelta = d
					}
				}
			}
		}
		stop := (w == nil || maxDelta < eps) && ws.rename.equivalent(changes, ix)
		if stop && w == nil {
			// Quiescent: the round at most renames classes (a node joining
			// an equivalent class, or a blank cycle re-deriving itself).
			// Discard it and return the pre-round partition, as a full
			// grouping-equivalence scan would.
			return iter, nil
		}
		changedNodes = changedNodes[:0]
		for _, ch := range changes {
			colors[ch.n] = ch.new
			ix.move(ch.n, ch.old, ch.new)
			changedNodes = append(changedNodes, ch.n)
		}
		for _, wc := range wchanges {
			w[wc.n] = wc.w
			changedNodes = append(changedNodes, wc.n)
		}
		if tracked != nil {
			for _, n := range changedNodes {
				if ws.tracked.add(int(n)) {
					*tracked = append(*tracked, n)
				}
			}
		}
		if stop {
			return iter + 1, nil
		}
		e.Hooks.RoundDirty(stage, iter+1, len(dirty))
		ws.mark.reset(len(colors))
		dirty = nextFrontier(g, changedNodes, ext, &ws.inX, &ws.mark, dirty)
	}
}
