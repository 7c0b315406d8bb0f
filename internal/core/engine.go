package core

import (
	"slices"

	"rdfalign/internal/rdf"
)

// Engine bundles the cross-cutting configuration of one alignment session:
// the refinement extensions (direction, edge filter, adaptive predicate
// handling), the cancellation/progress hooks and the depth bound. Every
// fixpoint in the package flows through an Engine, and every refinement
// fixpoint — default or extended recoloring, unweighted or weighted — runs
// on the one incremental worklist loop (worklist.go). Refinement is
// sequential: a concurrent gather-and-intern round lost to the sequential
// worklist at two cores (the sequential frontier is cheap and the
// per-round coordination is not), so parallelism is confined to the
// overlap matching scans (similarity.OverlapOptions.Workers).
//
// Engine methods check the hooks' context once per round and return its
// error as soon as cancellation is observed; with a nil context they never
// fail. An Engine without a Workspace is immutable after construction and
// safe for concurrent use; one with a Workspace attached is not, because
// every method refines through that workspace.
type Engine struct {
	// Opt selects the recoloring variant (§3.3/§5.1/§6 extensions). The
	// zero value is the paper's default outbound recoloring.
	Opt RefineOptions
	// Hooks carries cancellation and per-round progress callbacks.
	Hooks Hooks
	// Deprecated: ignored; refinement is sequential.
	Workers int
	// MaxDepth > 0 caps every refinement fixpoint at that many applied
	// rounds — bounded-depth k-bisimulation (the localized/k-bounded
	// variant of the literature; cheap approximate alignment). 0 runs the
	// exact unbounded fixpoint. At the top of iteration i the current
	// partition holds exactly i applied rounds, each the partition a full
	// recoloring of the recolor set would produce (the worklist only skips
	// nodes whose recoloring cannot change, and the discarded quiescent
	// round is never counted), so for every k the coloring is the k-round
	// refinement, bit-identical for every interner seed — the same
	// determinism guarantee the unbounded fixpoint carries. A fixpoint
	// that stabilises before round k is unaffected: bounded and unbounded
	// results coincide.
	MaxDepth int
	// Work, when non-nil, is the refinement workspace every method runs
	// on, kept by its owner across calls (an alignment session keeps one
	// per lineage). nil gives each call a workspace of its own.
	Work *Workspace
}

// useOpts reports whether recoloring must go through the extended path.
func (e *Engine) useOpts() bool { return e.Opt.extended() || e.Opt.Filter != nil }

// Refine computes the refinement fixpoint BisimRefine*_X(λ) (Definition 4)
// under the engine's options: one-step refinement — nodes in x recolored,
// all other nodes keeping their color — is applied until it yields a
// partition equivalent to its input, the paper's Λⁿ(λ) ≡ Λⁿ⁺¹(λ) with n
// minimal, and Λⁿ(λ) is returned together with n. It reports one
// StageRefine round per iteration and aborts with the context's error on
// cancellation.
//
// Stabilisation is detected by grouping equivalence rather than by class
// counting: while refinement of label partitions is strictly monotone, the
// hybrid/propagation uses start from partitions that already contain
// composite colors, and a recolored node may legitimately *join* such a
// class when its derivation tree coincides with an aligned node's tree
// (paper Example 4: "the depth of the trees may be greater than the number
// of iterations … for aligned nodes colors from the deblanking alignments
// are used").
//
// The fixpoint runs on the incremental worklist (worklist.go): after each
// round only the nodes of x whose neighbourhood changed are recolored, and
// stabilisation is decided from the round's change list.
func (e *Engine) Refine(g *rdf.Graph, p *Partition, x []rdf.NodeID) (*Partition, int, error) {
	ws := e.workspace()
	q := p.Clone()
	ws.Follow(p, q, nil)
	return e.refineOwned(ws, g, q, x)
}

// refineOwned is Refine on a partition the caller owns, refined in place.
func (e *Engine) refineOwned(ws *Workspace, g *rdf.Graph, p *Partition, x []rdf.NodeID) (*Partition, int, error) {
	iters, err := e.worklist(ws, g, p, nil, x, 0, nil)
	if err != nil {
		return nil, 0, err
	}
	return p, iters, nil
}

// Bisim computes λ_Bisim = BisimRefine*_{N_G}(ℓ_G), which by Proposition 1
// captures the maximal bisimulation on G.
func (e *Engine) Bisim(g *rdf.Graph, in *Interner) (*Partition, int, error) {
	all := make([]rdf.NodeID, g.NumNodes())
	for i := range all {
		all[i] = rdf.NodeID(i)
	}
	return e.Refine(g, LabelPartition(g, in), all)
}

// Deblank computes λ_Deblank = BisimRefine*_{Blanks(G)}(ℓ_G) (§3.3):
// bisimulation refinement restricted to blank nodes, which characterises
// each blank node by its contents (the URIs and data values reachable from
// it).
func (e *Engine) Deblank(g *rdf.Graph, in *Interner) (*Partition, int, error) {
	return e.DeblankFrom(g, LabelPartition(g, in))
}

// DeblankFrom is Deblank over an externally supplied base partition: it
// refines base on exactly the blank nodes of g. Deblank is DeblankFrom of
// LabelPartition(g, in); alignment sessions that maintain a label partition
// across deltas (extending it for appended nodes instead of rebuilding the
// label maps) seed the fixpoint here.
func (e *Engine) DeblankFrom(g *rdf.Graph, base *Partition) (*Partition, int, error) {
	var blanks []rdf.NodeID
	g.Nodes(func(n rdf.NodeID) {
		if g.IsBlank(n) {
			blanks = append(blanks, n)
		}
	})
	return e.Refine(g, base, blanks)
}

// Hybrid computes λ_Hybrid (§3.4): starting from the deblank partition, the
// colors of unaligned non-literal nodes are reset to the neutral blank
// color and bisimulation refinement is re-run on exactly those nodes,
// allowing URIs with different labels (ontology changes) — and blank nodes
// whose deblank color embedded such URIs — to align. The returned iteration
// count totals both phases.
func (e *Engine) Hybrid(c *rdf.Combined, in *Interner) (*Partition, int, error) {
	deblank, it1, err := e.Deblank(c.Graph, in)
	if err != nil {
		return nil, 0, err
	}
	p, it2, err := e.HybridFromDeblank(c, deblank)
	if err != nil {
		return nil, 0, err
	}
	return p, it1 + it2, nil
}

// HybridFromDeblank runs only the second phase of the hybrid construction,
// for callers that already hold λ_Deblank.
func (e *Engine) HybridFromDeblank(c *rdf.Combined, deblank *Partition) (*Partition, int, error) {
	ws := e.workspace()
	un := ws.unalignedNonLiterals(c, deblank)
	p := BlankOut(deblank, un)
	ws.Follow(deblank, p, un)
	return e.refineOwned(ws, c.Graph, p, un)
}

// Propagate spreads alignment information in ξ to the currently unaligned
// non-literal nodes (§4.5):
//
//	Propagate(ξ) = BisimRefine*_{UN(ξ)}(Blank(ξ, UN(ξ)))
//
// It refines xi, which the caller owns, in place: it blanks the colors and
// zeroes the weights of the unaligned non-literal nodes, then runs weighted
// refinement on exactly those nodes — colors refined as in the unweighted
// case, weights recomputed with reweight — until the partition and the
// weights stabilise (max weight change < eps; eps <= 0 selects
// DefaultEpsilon), so their identity and a confidence weight are rebuilt
// from their outbound neighbourhoods. Callers that need the input ξ
// afterwards propagate a copy. It reports one StagePropagate round per
// iteration and returns the number of steps and the ascending,
// deduplicated list of nodes whose color or weight the propagation moved —
// the initial blank-out plus the worklist's per-round change lists. The
// list is a superset of the strict input/output difference (a node that
// changes and reverts stays listed) and a subset of the recolor set, so
// incremental consumers (the overlap matcher's per-round index) can
// invalidate exactly the dependents of the listed nodes. On error xi is
// left partly refined.
//
// Weighted recoloring always uses the paper's default outbound
// characterisation; the engine's Opt does not apply. Weights of the
// refined nodes start at 0 and only increase during refinement, which
// guarantees convergence; the iteration cap turns any violation of that
// contract into an ErrNoFixpoint error.
func (e *Engine) Propagate(c *rdf.Combined, xi *Weighted, eps float64) (int, []rdf.NodeID, error) {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	ws := e.workspace()
	un := ws.unalignedNonLiterals(c, xi.P)
	// Blank(ξ, UN) in place. Assign journals all of un, which covers the
	// weights the worklist moves: it reweights only nodes of its recolor
	// set.
	ws.tracked.reset(len(xi.W))
	var tracked []rdf.NodeID
	blank := xi.P.in.Blank()
	for _, n := range un {
		if xi.P.colors[n] != blank || xi.W[n] != 0 {
			ws.tracked.add(int(n))
			tracked = append(tracked, n)
		}
		ws.Assign(xi, n, blank, 0)
	}
	iters, err := e.worklist(ws, c.Graph, xi.P, xi.W, un, eps, &tracked)
	if err != nil {
		return 0, nil, err
	}
	slices.Sort(tracked)
	return iters, tracked, nil
}
