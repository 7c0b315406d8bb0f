package rdfalign

import (
	"context"
	"errors"
	"fmt"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/similarity"
)

// This file implements delta-driven alignment maintenance: ApplyDelta edits
// the target graph by an EditScript and repairs the alignment instead of
// recomputing it from scratch.
//
// Every Align call starts a session lineage: the returned Alignment carries
// an alignState referencing the sessionShared of the lineage (persistent
// color interner, lazily built target-graph editor, overlap matcher
// caches) plus the per-version immutable snapshot (combined graph, label
// base colors, deblank fixpoint). ApplyDelta advances the lineage by one
// version and returns a new Alignment; the input Alignment stays fully
// usable for queries but can no longer be advanced (ErrStaleAlignment).
//
// Maintained output is identical to a from-scratch alignment of the
// post-edit pair in everything observable — pair sets, distances, unaligned
// sets, edge statistics, entity counts, the induced grouping — at a cost
// proportional to the edit rather than the graph:
//
//   - the edited target and the union graph are a shared base CSR plus a
//     small edge overlay (rdf.Editor.Apply, rdf.RebaseUnion): each delta
//     merges the edit into the previous version's overlay, sharing the
//     base and every run the edit leaves alone, instead of copying the
//     out-CSR and dependents indexes;
//   - node IDs are stable under edits, so the label base colors and the
//     trivial colors are extended for appended nodes only;
//   - the deblank fixpoint re-runs only when a blank node was touched or
//     introduced (a blank's color reads just its outbound neighbourhood,
//     whose base colors never change for existing nodes) or when extended
//     refinement options are active; otherwise the previous fixpoint is
//     extended with base colors for the appended nodes, which is exactly
//     what a full re-run would produce;
//   - the overlap matcher's inverted index and σNL caches survive in
//     sessionShared and are repaired from the edit's touched subjects plus
//     the color/weight diff against the previous final ξ (see
//     similarity.OverlapState), taken over the nodes the refinement
//     workspace journaled rather than over every node;
//   - the refinement workspace (core.Workspace) survives in sessionShared
//     from the first delta on: the worklist's marks and grouping-
//     equivalence witnesses are reset by generation stamps instead of
//     being reallocated per run, and its class index — per-color side
//     counts, members and an unaligned bitmap —
//     follows every recoloring, so the unaligned sets that hybrid,
//     propagation and overlap matching read cost O(changes + |Unaligned|).
//     Between versions the index is rewound to the new deblank partition by
//     re-assigning only the nodes the previous run moved plus the appended
//     ones; the first delta, a re-run deblank fixpoint, extended options,
//     or a failed previous delta rebuild it with one O(N) pass.
//
// Committed columns are never written, so versions share what a delta
// leaves unchanged: when it appends no node (the steady state of an edit
// stream that reuses labels), the label base colors, the trivial colors
// and, on the path that does not re-run the deblank fixpoint, the deblank
// colors are the previous version's slices, and the graphs' index columns
// always are (their overlays hold what the edits changed). Still O(N) per
// delta, each to keep the previous Alignment valid for queries: one hybrid
// color column (the blank-out copy of the deblank colors), under Overlap
// one ξ — a copy of the hybrid colors plus a weight column, which every
// enrich/propagate round then refines in place — and, at O(N/64), the
// overlays' node bitsets. A delta that appends nodes also copies the label
// and deblank columns to extend them. Once an overlay's edges reach one in
// patchDenseFactor (25) of its base's triples, the next delta folds that
// graph into a fresh CSR: one O(|E|) block copy of its indexes, amortised
// over the deltas that filled the overlay.
//
// Interner note: the session replays refinement over the persistent
// interner, whose composite colors are content-addressed — identical
// derivations yield identical colors — so re-running a fixpoint reproduces
// the grouping a fresh interner would produce, merely under different color
// numbers. All exported observables are numbering-independent.

// ErrStaleAlignment is returned by ApplyDelta when the given alignment is
// not the newest version of its session lineage: an earlier ApplyDelta
// already advanced the shared target-graph editor past it.
var ErrStaleAlignment = errors.New("rdfalign: alignment is not the latest version of its session; apply deltas to the newest Alignment")

// sessionShared is the mutable state shared by every version of one
// alignment lineage. It is advanced only by a committed ApplyDelta; a
// failed ApplyDelta rolls the editor back and leaves the lineage on its
// previous version.
type sessionShared struct {
	// version counts committed deltas; alignState.version snapshots it so
	// stale alignments are rejected.
	version int
	// editor maintains the evolving target graph; built lazily on the
	// first ApplyDelta.
	editor *rdf.Editor
	// in is the lineage's persistent color interner.
	in *core.Interner
	// overlap carries the overlap matcher's index and caches across
	// versions (Overlap method only; zero value otherwise).
	overlap similarity.OverlapState
	// work is the lineage's refinement workspace, built lazily on the
	// first ApplyDelta: Align's own workspace goes with its call, so a
	// lineage that is never advanced keeps none. Between versions its
	// class index follows the newest version's final partition, with a
	// journal of the nodes moved since that version's deblank partition.
	// Only ApplyDelta touches it; queries on any Alignment never do.
	work *core.Workspace
}

// alignState is the per-version session snapshot an Alignment carries.
// Everything here is immutable once the version is committed.
type alignState struct {
	al      *Aligner
	shared  *sessionShared
	version int
	c       *rdf.Combined
	// base holds the label base color of every combined node (non-Trivial
	// methods); trivial holds the λ_Trivial colors (Trivial method).
	base    []core.Color
	trivial []core.Color
	// deblank is the maintained λ_Deblank fixpoint (non-Trivial methods).
	deblank *core.Partition
}

// ApplyDelta applies an edit script to the target graph of alignment a and
// returns the alignment of the source against the edited target,
// maintained incrementally from a's session state. The result is what
// Align(ctx, a.Source(), editedTarget) would return — identical pair sets,
// distances, unaligned sets, edge statistics and entity counts — at a cost
// proportional to the edit.
//
// a must be the newest version of a lineage started by this Aligner's
// Align (ErrStaleAlignment otherwise), and the lineage must be advanced
// from one goroutine at a time; alignments themselves remain safe for
// concurrent queries. On any error — a script that does not apply, or
// cancellation mid-maintenance — the edit is rolled back, the lineage
// stays on version a, and both a and a retry remain fully usable.
func (al *Aligner) ApplyDelta(ctx context.Context, a *Alignment, s *EditScript) (*Alignment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := a.state
	if st == nil || st.al == nil {
		return nil, errors.New("rdfalign: alignment carries no session state")
	}
	if st.al != al {
		return nil, errors.New("rdfalign: alignment was produced by a different Aligner")
	}
	sh := st.shared
	if st.version != sh.version {
		return nil, ErrStaleAlignment
	}
	if sh.editor == nil {
		sh.editor = rdf.NewEditor(st.c.TargetGraph())
	}
	res, err := sh.editor.Apply(s.Ops)
	if err != nil {
		return nil, fmt.Errorf("rdfalign: apply delta: %w", err)
	}
	a2, err := al.maintain(ctx, st, a.part, res)
	if err != nil {
		// Roll the edit back so the lineage stays on version a; a failed
		// OverlapAlign has already reset the shared matcher state, and the
		// workspace's index, which followed the failed run, is dropped and
		// rebuilt by the retry, so a retry starts from a consistent
		// snapshot either way.
		sh.editor.Revert(res)
		sh.work.Drop()
		return nil, err
	}
	sh.version++
	a2.state.version = sh.version
	return a2, nil
}

// Stale reports whether this alignment's session lineage has been advanced
// past it: a later ApplyDelta committed a newer version, so applying a
// delta to this alignment would return ErrStaleAlignment. Queries remain
// valid on a stale alignment — only advancement is gated. Alignments
// without session state (zero-value constructions) report stale, since
// they can never be advanced.
func (a *Alignment) Stale() bool {
	if a.state == nil || a.state.al == nil {
		return true
	}
	return a.state.version != a.state.shared.version
}

// ApplyDelta is Aligner.ApplyDelta on the aligner that produced a.
func (a *Alignment) ApplyDelta(ctx context.Context, s *EditScript) (*Alignment, error) {
	if a.state == nil || a.state.al == nil {
		return nil, errors.New("rdfalign: alignment carries no session state")
	}
	return a.state.al.ApplyDelta(ctx, a, s)
}

// maintain rebuilds the alignment over the edited target from the previous
// version's state; prev is that version's final partition, which the
// workspace's index follows. It never mutates st; on error the caller
// rolls the editor back and the lineage is untouched.
func (al *Aligner) maintain(ctx context.Context, st *alignState, prev *core.Partition, res *rdf.EditResult) (*Alignment, error) {
	eng := al.engine(ctx)
	sh := st.shared
	if sh.work == nil {
		// The lineage's first delta: the Rewind below finds no index
		// and builds it with one O(N) pass.
		sh.work = core.NewWorkspace()
	}
	eng.Work = sh.work
	in := sh.in
	c2 := rdf.RebaseUnion(st.c, res)
	oldN, newN := st.c.NumNodes(), c2.NumNodes()
	touched := make([]rdf.NodeID, len(res.Touched))
	for i, n := range res.Touched {
		touched[i] = c2.FromTarget(n)
	}

	st2 := &alignState{al: al, shared: sh, c: c2}
	a2 := &Alignment{Method: al.cfg.method, Theta: al.cfg.theta, c: c2, state: st2}

	if al.cfg.method == Trivial {
		colors := extendColors(st.trivial, newN)
		for n := oldN; n < newN; n++ {
			if c2.IsBlank(rdf.NodeID(n)) {
				colors[n] = in.Fresh()
			} else {
				colors[n] = in.Base(c2.Label(rdf.NodeID(n)))
			}
		}
		st2.trivial = colors
		al.relate(a2, stages{part: core.NewPartition(in, colors)})
		return a2, nil
	}

	// Extend the label base colors for the appended nodes; existing nodes
	// keep their IDs and labels, so their base colors are already right.
	base2 := extendColors(st.base, newN)
	for n := oldN; n < newN; n++ {
		base2[n] = in.Base(c2.Label(rdf.NodeID(n)))
	}
	st2.base = base2

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Deblank phase. A blank's fixpoint color reads only its outbound
	// neighbourhood: the base colors of existing nodes never change, so the
	// previous fixpoint stays exact unless the edit touched a blank
	// subject's out-edges or introduced new blanks. Extended refinement
	// options (contextual, adaptive, key predicates) read inbound and
	// occurrence neighbourhoods, which edits to non-blank subjects can
	// reach, so they always re-run.
	seeds := false
	for _, n := range touched {
		if c2.IsBlank(n) {
			seeds = true
			break
		}
	}
	for n := oldN; !seeds && n < newN; n++ {
		seeds = c2.IsBlank(rdf.NodeID(n))
	}
	var deblank2 *core.Partition
	itDeblank := 0
	if !seeds && !al.cfg.contextual && !al.cfg.adaptive && len(al.cfg.keyPredicates) == 0 {
		colors := extendColors(st.deblank.Colors(), newN)
		copy(colors[oldN:], base2[oldN:])
		deblank2 = core.NewPartition(in, colors)
		// Rewind the class index to deblank2: only the nodes the previous
		// run moved and the appended nodes are re-assigned.
		sh.work.Rewind(c2, prev, deblank2)
	} else {
		// The fixpoint re-runs over every blank, so the index is rebuilt
		// for its base partition with one O(N) pass, like the run itself.
		basePart := core.NewPartition(in, base2)
		sh.work.Track(c2, basePart)
		var err error
		deblank2, itDeblank, err = eng.DeblankFrom(c2.Graph, basePart)
		if err != nil {
			return nil, err
		}
	}
	// The next delta rewinds to here: journal the nodes this run moves.
	sh.work.Checkpoint(c2, deblank2)
	st2.deblank = deblank2
	s, err := al.finishFromDeblank(eng, al.cfg.method, c2, deblank2, itDeblank, &sh.overlap, touched)
	if err != nil {
		return nil, err
	}
	al.relate(a2, s)
	return a2, nil
}

// extendColors returns a committed version's color column sized for n
// nodes, n >= len(prev): prev itself when the delta appended no node —
// committed columns are never written, so versions share them — and
// otherwise a copy with room for the appended nodes, which the caller
// fills.
func extendColors(prev []core.Color, n int) []core.Color {
	if n == len(prev) {
		return prev
	}
	colors := make([]core.Color, n)
	copy(colors, prev)
	return colors
}
