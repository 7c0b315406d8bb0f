package similarity

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/strdist"
)

// OverlapOptions configures the overlap alignment (Algorithm 2).
type OverlapOptions struct {
	// Theta is the similarity threshold θ ∈ (0, 1]; the zero value
	// selects DefaultTheta, the paper's evaluation setting (Figure 15's
	// precision peak). Values outside (0, 1] are rejected — the same
	// range, zero-value semantics and error wording as rdfalign's
	// WithTheta.
	Theta float64
	// Epsilon is the weight stabilisation threshold for propagation.
	Epsilon float64
	// Hooks threads cancellation and progress through the loop: the
	// context is checked once per round, once per propagation round
	// inside it, and once per source node plus once per candidate batch
	// inside each matching phase; a StageOverlap event is reported after
	// each round. The zero value disables both.
	Hooks core.Hooks
	// MaxDepth > 0 caps every propagation fixpoint inside the loop at that
	// many applied rounds (core.Engine.MaxDepth): the bounded-depth
	// k-bisimulation mode. The outer enrich/propagate loop of Algorithm 2
	// is not capped — it terminates because Enrich strictly shrinks the
	// unaligned sets, independent of how deep each propagation ran. 0 runs
	// the exact unbounded propagation.
	MaxDepth int
	// Workers > 1 parallelises the matching phases (candidate generation
	// and σ-verification fan out across source nodes, see
	// OverlapMatch); <= 1 runs sequentially. Propagation is
	// sequential either way. Every worker count produces bit-identical
	// colorings, weights and pair sets.
	Workers int

	// State, when non-nil, carries the non-literal matcher — the inverted
	// index over B plus the characterisation and σNL caches — across
	// OverlapAlign calls on successive versions of the same combined graph
	// (stable node IDs, possibly appended nodes, edited edges). On entry a
	// populated State is rebased onto c and repaired from Invalidate plus
	// the exact diff against the previous call's final ξ; on success the
	// state is refreshed for the next call, and on any error it is reset so
	// the next call rebuilds from scratch. The result is bit-identical to a
	// stateless run (the maintenance property tests pin this).
	State *OverlapState
	// Invalidate lists the combined-graph nodes whose outbound edge set
	// changed since the previous call State was saved by (the delta's
	// touched subjects). An edited out-edge set is invisible to the
	// color/weight diff — the node's own color may be unchanged — so these
	// cache entries are dropped directly during the rebase.
	Invalidate []rdf.NodeID
	// Work, when non-nil, is the refinement workspace the loop runs on:
	// the one that refined hybrid, so the unaligned sets come from its
	// class index, and on a resumed State the carry list comes from its
	// journal (see resumeNLMatcher). nil runs on a workspace of the
	// call's own.
	Work *core.Workspace

	// scratchIndex disables the incremental per-round index of the
	// non-literal matching phase, rebuilding it from scratch every round.
	// Unexported: the oracle knob of the incremental-vs-scratch property
	// tests.
	scratchIndex bool
}

// OverlapState is the reusable cross-call state of OverlapAlign's
// non-literal matching phase. The zero value is ready to use; pass the same
// instance to successive OverlapAlign calls over successive graph versions
// to reuse the matcher's index and caches at O(changed) repair cost.
type OverlapState struct {
	matcher *nlMatcher
	lastXi  *core.Weighted
	theta   float64
}

// Reset drops the carried state; the next OverlapAlign call rebuilds from
// scratch.
func (s *OverlapState) Reset() { *s = OverlapState{} }

// resumeNLMatcher returns the matcher for this call and the carry change
// list for its first round: the nodes of the previous node range whose
// color or weight differs between the previous call's final ξ and this
// call's starting ξ0. Cached entries are valid with respect to the
// previous final ξ, while the per-round change lists are relative to ξ0;
// carrying the diff into the first round's repair restores the matcher's
// invariant. The workspace's journal names a superset of those nodes (the
// previous run's moves, rewound since, plus this run's hybrid moves), so
// only they are compared; a workspace that cannot vouch for it — the
// deblank fixpoint re-ran, or the workspace was dropped — leaves the full
// O(N) diff. A state that cannot be reused (first call, mismatched θ, a
// shrunken graph, or the scratch oracle knob) yields a fresh matcher and
// no carry.
func resumeNLMatcher(c *rdf.Combined, xi0 *core.Weighted, ws *core.Workspace, opt OverlapOptions) (*nlMatcher, []rdf.NodeID) {
	st := opt.State
	if st == nil || st.matcher == nil || st.lastXi == nil ||
		st.theta != opt.Theta || opt.scratchIndex ||
		st.lastXi.P.Len() > c.NumNodes() {
		return newNLMatcher(c, opt.Theta, opt.Workers), nil
	}
	m := st.matcher
	m.rebase(c, opt.Workers, opt.Invalidate)
	oc, nc := st.lastXi.P.Colors(), xi0.P.Colors()
	differs := func(n rdf.NodeID) bool {
		return oc[n] != nc[n] || st.lastXi.W[n] != xi0.W[n]
	}
	var carry []rdf.NodeID
	if cands, ok := ws.Carry(st.lastXi.P, xi0.P); ok {
		for _, n := range cands {
			if int(n) < len(oc) && differs(n) {
				carry = append(carry, n)
			}
		}
		return m, carry
	}
	for n := range oc {
		if differs(rdf.NodeID(n)) {
			carry = append(carry, rdf.NodeID(n))
		}
	}
	return m, carry
}

// DefaultTheta is the threshold used throughout the paper's evaluation.
const DefaultTheta = 0.65

// ValidateTheta checks a (non-zero) similarity threshold against the
// accepted range. Every θ-taking layer — OverlapAlign here and rdfalign's
// NewAligner — accepts exactly (0, 1], treats a zero value as "use
// DefaultTheta" before validating, and reports violations with this
// wording.
func ValidateTheta(theta float64) error {
	if theta <= 0 || theta > 1 {
		return fmt.Errorf("theta %v outside (0, 1] (zero selects the default %v)", theta, DefaultTheta)
	}
	return nil
}

// OverlapResult is the weighted partition ξOverlap produced by Algorithm 2,
// with per-round diagnostics.
type OverlapResult struct {
	Xi     *core.Weighted
	Theta  float64
	Rounds int
	// LiteralPairs is the number of close literal pairs discovered by the
	// initial literal OverlapMatch; NonLiteralPairs accumulates the pairs
	// discovered by the per-round non-literal matches.
	LiteralPairs    int
	NonLiteralPairs int
	// Candidates is the total number of candidate pairs the literal and
	// non-literal matches screened (see WeightedBipartite.Candidates); the
	// StageOverlap progress events report it per round as Dirty.
	Candidates int
}

// Alignment wraps the result as Align_θ(ξOverlap).
func (r *OverlapResult) Alignment(c *rdf.Combined) *core.Alignment {
	return core.NewWeightedAlignment(c, r.Xi, r.Theta)
}

// maxOverlapRounds caps the enrich/propagate loop. Algorithm 2 terminates
// because every round with a non-empty H strictly shrinks the unaligned
// sets, so the cap only turns a would-be infinite loop into an
// ErrNoFixpoint error; tests lower it.
var maxOverlapRounds = 1000

// OverlapAlign runs Algorithm 2 (§4.7) on a combined graph, starting from
// the given hybrid partition:
//
//	ξ0 := (λHybrid, 0)
//	H0 := OverlapMatch(unaligned literals, θ, split, σLiterals)
//	repeat: ξi := Propagate(Enrich(ξi−1, Hi−1))
//	        Hi := OverlapMatch(unaligned non-literals, θ, out-color, σNL)
//	until Hi has no edges
//
// ξ0 is the one copy the call makes: every round enriches and propagates
// that same ξ in place (Enrich, core.Engine.Propagate), and hybrid itself
// is never modified, so callers may run OverlapAlign on one hybrid
// partition any number of times. The returned ξ is the call's own; on
// error it is discarded.
//
// The per-round non-literal match runs over an incrementally maintained
// index: the inverted index over B and the characterisation/σNL caches
// survive across rounds and are repaired from the nodes Enrich and
// Propagate actually moved (see nlMatcher), instead of being rebuilt from
// scratch while Unaligned only shrinks. With opt.Workers > 1 the matching
// scans additionally fan out across goroutines; every configuration yields
// bit-identical results.
func OverlapAlign(c *rdf.Combined, hybrid *core.Partition, opt OverlapOptions) (result *OverlapResult, err error) {
	if opt.Theta == 0 {
		opt.Theta = DefaultTheta
	}
	if err := ValidateTheta(opt.Theta); err != nil {
		return nil, fmt.Errorf("similarity: %w", err)
	}
	res := &OverlapResult{Theta: opt.Theta}

	ws := opt.Work
	if ws == nil {
		ws = core.NewWorkspace()
	}
	xi := core.NewWeighted(hybrid.Clone())
	ws.Follow(hybrid, xi.P, nil)
	matcher, carry := resumeNLMatcher(c, xi, ws, opt)
	if opt.State != nil {
		// Refresh the carried state on success; reset it on any error so
		// the next call rebuilds from scratch instead of repairing from a
		// torn matcher.
		defer func() {
			if err != nil {
				opt.State.Reset()
			} else {
				*opt.State = OverlapState{matcher: matcher, lastXi: result.Xi, theta: opt.Theta}
			}
		}()
	}
	// Lines 2–4: initial literal matching.
	a0, b0 := ws.Unaligned(c, xi.P, true)
	h, err := OverlapMatch(a0, b0, opt.Theta, func(n rdf.NodeID) []string {
		return Split(c.Label(n).Value)
	}, func(n, m rdf.NodeID) (float64, bool) {
		return strdist.WithinThreshold(c.Label(n).Value, c.Label(m).Value, opt.Theta)
	}, opt.Hooks, opt.Workers)
	if err != nil {
		return nil, err
	}
	res.LiteralPairs = len(h.Edges)
	res.Candidates = h.Candidates
	reported := 0

	// Lines 5–12.
	eng := &core.Engine{Hooks: opt.Hooks, MaxDepth: opt.MaxDepth, Work: ws}
	matcher.scratchRounds = opt.scratchIndex
	var changed []rdf.NodeID
	for {
		if err := opt.Hooks.Err(); err != nil {
			return nil, err
		}
		res.Rounds++
		if res.Rounds > maxOverlapRounds {
			return nil, &core.NoFixpointError{Stage: core.StageOverlap, Round: res.Rounds}
		}
		enrichChanged := Enrich(xi, h, ws)
		_, propChanged, err := eng.Propagate(c, xi, opt.Epsilon)
		if err != nil {
			return nil, err
		}
		// The round moved exactly the colors/weights Enrich assigned plus
		// the ones the propagation worklist recolored or reweighted; the
		// incremental matcher invalidates their recolor dependents. On a
		// resumed matcher the first round additionally carries the diff
		// against the previous call's final ξ (see resumeNLMatcher).
		changed = append(changed[:0], carry...)
		carry = nil
		changed = append(changed, enrichChanged...)
		changed = append(changed, propChanged...)
		ai, bi := ws.Unaligned(c, xi.P, false)
		h, err = matcher.round(xi, ai, bi, changed, opt.Hooks)
		if err != nil {
			return nil, err
		}
		res.NonLiteralPairs += len(h.Edges)
		res.Candidates += h.Candidates
		opt.Hooks.RoundDirty(core.StageOverlap, res.Rounds, res.Candidates-reported)
		reported = res.Candidates
		if !h.HasEdges() {
			break
		}
	}
	res.Xi = xi
	return res, nil
}

// Split is the literal characterisation function of §4.7: the label is
// split into its set of words (maximal runs of letters and digits).
func Split(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// outColorKey encodes an out-color pair (λ(p), λ(o)) as a single comparable
// key for the inverted index.
func outColorKey(p, o core.Color) uint64 {
	return uint64(uint32(p))<<32 | uint64(uint32(o))
}

// outColors returns out-color_ξ(n) = {(λ(p), λ(o)) | (p,o) ∈ out(n)} as
// encoded keys (§4.7), deduplicated in out(n) first-occurrence order
// through the caller's reusable set.
func outColors(seen *seenSet[uint64], c *rdf.Combined, p *core.Partition, n rdf.NodeID) []uint64 {
	out := c.Out(n)
	keys := make([]uint64, 0, len(out))
	for _, e := range out {
		keys = append(keys, outColorKey(p.Color(e.P), p.Color(e.O)))
	}
	return seen.appendNew(keys[:0], keys)
}

// nlEdge is one outbound edge annotated with its color key and weight for
// the rank-wise coupling of σNL.
type nlEdge struct {
	key uint64
	w   float64
}

// NLDistance is the non-literal distance σNL_ξ of §4.7. The outgoing edges
// of n and m are coupled color-by-color: edges sharing an out-color are
// paired rank-wise after sorting by their weight ω(p) ⊕ ω(o); a coupled
// pair costs σξ(p1,p2) ⊕ σξ(o1,o2) — which, because coupled nodes share
// colors, reduces to (ω(p1) ⊕ ω(p2)) ⊕ (ω(o1) ⊕ ω(o2)) — and the R edges
// left uncoupled cost 1 each. The total is ⊕-accumulated with each term
// divided by f = max(|out-color(n)|, |out-color(m)|):
//
//	⊕ { (σξ(p1,p2) ⊕ σξ(o1,o2)) / f | coupled } ⊕ R/f
//
// As the paper notes, no Hungarian algorithm is needed: grouping by color
// plus weight-rank coupling realises the optimal same-color matching.
func NLDistance(c *rdf.Combined, xi *core.Weighted, n, m rdf.NodeID) float64 {
	return nlDistanceEdges(nlEdges(c, xi, n), nlEdges(c, xi, m))
}

// nlDistanceEdges is NLDistance over precomputed (key, weight) edge lists —
// the form the incremental matcher verifies candidates with, so the lists
// are built once per node per round instead of once per candidate pair.
//
// The coupled-pair terms are folded in ascending value order, not key
// order: ⊕ saturates and floating-point addition is not associative, while
// color numbering — and therefore key order — depends on the interner's
// allocation history. The term multiset is numbering-independent (grouping
// and within-group weight ranks are), so the sorted fold makes σNL bitwise
// reproducible across interners — what keeps a maintained alignment
// session's distances identical to a from-scratch run's.
func nlDistanceEdges(en, em []nlEdge) float64 {
	fn := distinctKeys(en)
	fm := distinctKeys(em)
	f := fn
	if fm > f {
		f = fm
	}
	if f == 0 {
		// Both nodes have no outgoing edges: indistinguishable.
		return 0
	}
	ff := float64(f)
	var termsBuf [24]float64
	terms := termsBuf[:0]
	uncoupled := 0
	i, j := 0, 0
	for i < len(en) || j < len(em) {
		switch {
		case j >= len(em) || (i < len(en) && en[i].key < em[j].key):
			uncoupled++
			i++
		case i >= len(en) || em[j].key < en[i].key:
			uncoupled++
			j++
		default:
			// Same color: couple rank-wise through the runs.
			key := en[i].key
			si, sj := i, j
			for i < len(en) && en[i].key == key {
				i++
			}
			for j < len(em) && em[j].key == key {
				j++
			}
			runN := en[si:i]
			runM := em[sj:j]
			k := 0
			for ; k < len(runN) && k < len(runM); k++ {
				terms = append(terms, core.OPlus(runN[k].w, runM[k].w)/ff)
			}
			uncoupled += (len(runN) - k) + (len(runM) - k)
		}
	}
	sort.Float64s(terms)
	acc := 0.0
	for _, t := range terms {
		acc = core.OPlus(acc, t)
	}
	return core.OPlus(acc, float64(uncoupled)/ff)
}

// nlEdges collects n's outbound edges as (color key, weight) sorted by key
// and then by weight — the "list of outgoing edges with the same colors
// ordered by their weight".
func nlEdges(c *rdf.Combined, xi *core.Weighted, n rdf.NodeID) []nlEdge {
	out := c.Out(n)
	edges := make([]nlEdge, 0, len(out))
	for _, e := range out {
		edges = append(edges, nlEdge{
			key: outColorKey(xi.P.Color(e.P), xi.P.Color(e.O)),
			w:   core.OPlus(xi.W[e.P], xi.W[e.O]),
		})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].key != edges[j].key {
			return edges[i].key < edges[j].key
		}
		return edges[i].w < edges[j].w
	})
	return edges
}

func distinctKeys(edges []nlEdge) int {
	n := 0
	for i, e := range edges {
		if i == 0 || e.key != edges[i-1].key {
			n++
		}
	}
	return n
}
