package core

import (
	"fmt"
	"math"

	"rdfalign/internal/rdf"
)

// Engine bundles the cross-cutting configuration of one alignment session:
// the refinement extensions (direction, edge filter, adaptive predicate
// handling), the cancellation/progress hooks and the depth bound. Every
// fixpoint in the package flows through an Engine; the package-level
// functions (Refine, DeblankPartition, HybridPartition, RefineWeighted,
// Propagate and their Opts variants) are thin wrappers over suitably
// configured Engines and keep their historical uncancellable signatures.
// Refinement is sequential: a concurrent gather-and-intern round lost to
// the sequential worklist at two cores (the sequential frontier is cheap
// and the per-round coordination is not), so parallelism is confined to
// the overlap matching scans (similarity.OverlapOptions.Workers).
//
// Engine methods check the hooks' context once per round and return its
// error as soon as cancellation is observed; with a nil context they never
// fail. An Engine is immutable after construction and safe for concurrent
// use.
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
	// exact unbounded fixpoint. The cap counts applied rounds uniformly
	// across all evaluation strategies: at the top of iteration i the
	// current partition holds exactly i applied rounds in the full-recolor
	// and worklist loops alike (the worklist only recolors nodes the full
	// round would move, and the discarded quiescent round is never
	// counted), so for every k the engines produce bit-identical colorings
	// for every interner seed — the same determinism guarantee the
	// unbounded fixpoint carries. A fixpoint that stabilises
	// before round k is unaffected: bounded and unbounded results coincide.
	MaxDepth int
	// FullRecolor disables the incremental worklist and recolors the
	// entire recolor set every round — the pre-worklist reference
	// behavior, kept for validation and benchmarking. Both strategies
	// produce the identical coloring; the worklist is strictly faster on
	// multi-round fixpoints. Engines with extended options (Opt) always
	// recolor fully: the extended characterisations read inbound and
	// predicate-occurrence neighbourhoods, which the outbound dependency
	// frontier does not cover.
	FullRecolor bool
}

// useOpts reports whether recoloring must go through the extended path.
func (e *Engine) useOpts() bool { return e.Opt.extended() || e.Opt.Filter != nil }

// Refine computes the refinement fixpoint BisimRefine*_X(λ) (Definition 4)
// under the engine's options, reporting one StageRefine round per iteration
// and aborting with the context's error on cancellation. See Refine for the
// stabilisation criterion.
//
// The default strategy is the incremental worklist engine (worklist.go):
// after each round only the nodes of x whose outbound neighbourhood changed
// are recolored, and stabilisation is decided from the round's change list.
// FullRecolor selects the full-recolor reference loop instead; extended
// options always use it (see Engine.FullRecolor).
func (e *Engine) Refine(g *rdf.Graph, p *Partition, x []rdf.NodeID) (*Partition, int, error) {
	if !e.useOpts() && !e.FullRecolor {
		return e.refineWorklist(g, p, x, nil)
	}
	return e.refineFull(g, p, x)
}

// refineFull is the full-recolor reference loop: every round recolors all
// of x via RefineStep/RefineStepOpts and compares the whole colorings for
// grouping equivalence. It is the only loop implementing the extended
// recoloring options.
func (e *Engine) refineFull(g *rdf.Graph, p *Partition, x []rdf.NodeID) (*Partition, int, error) {
	cur := p
	for iter := 0; ; iter++ {
		if err := e.Hooks.Err(); err != nil {
			return nil, 0, err
		}
		if e.MaxDepth > 0 && iter >= e.MaxDepth {
			return cur, iter, nil // k-bounded: exactly MaxDepth applied rounds
		}
		if iter > DefaultMaxIterations {
			panic(fmt.Sprintf("core: Refine did not stabilise after %d iterations", iter))
		}
		var next *Partition
		if e.useOpts() {
			next = RefineStepOpts(g, cur, x, e.Opt)
		} else {
			next = RefineStep(g, cur, x)
		}
		if equivalentColors(cur.colors, next.colors) {
			return cur, iter, nil
		}
		cur = next
		e.Hooks.RoundDirty(StageRefine, iter+1, len(x))
	}
}

// RefineChanged is Refine additionally returning the ascending,
// deduplicated list of nodes whose color the refinement moved — the
// worklist's per-round applied change lists. The list is a superset of the
// strict input/output difference (a node that changes and later reverts
// stays listed) and always a subset of the recolor set, so incremental
// consumers (the overlap matcher's persistent index) can invalidate exactly
// the dependents of the listed nodes. With FullRecolor or extended options
// there are no worklist change lists; the change list is then the exact
// input/output difference over the recolor set.
func (e *Engine) RefineChanged(g *rdf.Graph, p *Partition, x []rdf.NodeID) (*Partition, int, []rdf.NodeID, error) {
	if !e.useOpts() && !e.FullRecolor {
		tracked := newChangeTracker(p.Len())
		out, iters, err := e.refineWorklist(g, p, x, tracked)
		if err != nil {
			return nil, 0, nil, err
		}
		return out, iters, tracked.sorted(), nil
	}
	out, iters, err := e.Refine(g, p, x)
	if err != nil {
		return nil, 0, nil, err
	}
	seen := make([]bool, p.Len())
	var changed []rdf.NodeID
	for _, n := range x {
		if !seen[n] && out.colors[n] != p.colors[n] {
			seen[n] = true
			changed = append(changed, n)
		}
	}
	sortNodeIDs(changed)
	return out, iters, changed, nil
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
	un := UnalignedNonLiterals(c, deblank)
	blanked := BlankOut(deblank, un)
	return e.Refine(c.Graph, blanked, un)
}

// RefineWeighted computes BisimRefine*_X(ξ) (§4.5): weighted refinement
// iterated until the partition and the weights stabilise (max weight change
// < eps), reporting one StagePropagate round per iteration. Weighted
// recoloring always uses the paper's default outbound characterisation; the
// engine's Opt does not apply. See the package-level RefineWeighted for the
// convergence argument.
// The default strategy is the incremental worklist engine (worklist.go);
// FullRecolor selects the full-recolor reference loop. Both produce
// bit-identical colors and weights.
func (e *Engine) RefineWeighted(g *rdf.Graph, xi *Weighted, x []rdf.NodeID, eps float64) (*Weighted, int, error) {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	if !e.FullRecolor {
		return e.refineWeightedWorklist(g, xi, x, eps, nil)
	}
	cur := xi
	for iter := 0; ; iter++ {
		if err := e.Hooks.Err(); err != nil {
			return nil, 0, err
		}
		if e.MaxDepth > 0 && iter >= e.MaxDepth {
			return cur, iter, nil // k-bounded: exactly MaxDepth applied rounds
		}
		if iter > DefaultMaxIterations {
			panic(fmt.Sprintf("core: RefineWeighted did not stabilise after %d iterations", iter))
		}
		next := RefineWeightedStep(g, cur, x)
		maxDelta := 0.0
		for _, n := range x {
			if d := math.Abs(next.W[n] - cur.W[n]); d > maxDelta {
				maxDelta = d
			}
		}
		if maxDelta < eps && equivalentColors(cur.P.colors, next.P.colors) {
			return next, iter + 1, nil
		}
		cur = next
		e.Hooks.RoundDirty(StagePropagate, iter+1, len(x))
	}
}

// Propagate spreads alignment information in ξ to the currently unaligned
// non-literal nodes (§4.5):
//
//	Propagate(ξ) = BisimRefine*_{UN(ξ)}(Blank(ξ, UN(ξ)))
func (e *Engine) Propagate(c *rdf.Combined, xi *Weighted, eps float64) (*Weighted, int, error) {
	un := UnalignedNonLiterals(c, xi.P)
	blanked := BlankOutWeighted(xi, un)
	return e.RefineWeighted(c.Graph, blanked, un, eps)
}

// PropagateChanged is Propagate additionally returning the ascending,
// deduplicated list of nodes whose color or weight the propagation moved —
// the initial blank-out plus the worklist's per-round change lists. The
// list is a superset of the strict input/output difference (a node that
// changes and reverts stays listed) and is always a subset of the
// propagation's recolor set, so incremental consumers (the overlap
// matcher's per-round index) can invalidate exactly the dependents of the
// listed nodes. With FullRecolor there are no worklist change lists; the
// change list is then the exact input/output difference over the recolor
// set.
func (e *Engine) PropagateChanged(c *rdf.Combined, xi *Weighted, eps float64) (*Weighted, int, []rdf.NodeID, error) {
	un := UnalignedNonLiterals(c, xi.P)
	blanked := BlankOutWeighted(xi, un)
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	if e.FullRecolor {
		out, iters, err := e.RefineWeighted(c.Graph, blanked, un, eps)
		if err != nil {
			return nil, 0, nil, err
		}
		var changed []rdf.NodeID
		for _, n := range un {
			if out.P.colors[n] != xi.P.colors[n] || out.W[n] != xi.W[n] {
				changed = append(changed, n)
			}
		}
		sortNodeIDs(changed)
		return out, iters, changed, nil
	}
	tracked := newChangeTracker(len(xi.W))
	for _, n := range un {
		if blanked.P.colors[n] != xi.P.colors[n] || blanked.W[n] != xi.W[n] {
			tracked.add(n)
		}
	}
	out, iters, err := e.refineWeightedWorklist(c.Graph, blanked, un, eps, tracked)
	if err != nil {
		return nil, 0, nil, err
	}
	return out, iters, tracked.sorted(), nil
}
