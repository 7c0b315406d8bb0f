// Package flooding implements Similarity Flooding (Melnik, Garcia-Molina &
// Rahm, ICDE 2002) as a comparator baseline. The paper's related work
// contrasts its similarity measure with this algorithm: "when defining the
// similarity of two nodes, the similarity flooding takes a weighted average
// over the Cartesian product of sets of outgoing edges of the two nodes
// while our approach identifies the optimal matching among the outgoing
// edges".
//
// The implementation follows the classic pairwise-connectivity-graph (PCG)
// formulation: a PCG node is a pair (a, b) of source/target nodes connected
// by equally-labelled predicates; similarity seeds from label equality and
// literal string similarity, then floods along PCG edges with
// inverse-degree weights until fixpoint.
//
// Two properties make it an instructive baseline here: it needs *shared
// predicate labels* to propagate at all (so it collapses on the paper's
// GtoPdb setting, where every version uses its own URI prefix — the paper's
// point that its problem statement is strictly harder), and its PCG is
// quadratic per predicate, which is the scalability wall the overlap
// heuristic avoids.
package flooding

import (
	"fmt"
	"math"
	"sort"

	"rdfalign/internal/rdf"
	"rdfalign/internal/strdist"
)

// Options configures the flooding run.
type Options struct {
	// Epsilon is the fixpoint threshold on the residual (default 1e-4,
	// the usual SF setting).
	Epsilon float64
	// MaxIterations caps the fixpoint (default 100).
	MaxIterations int
	// MaxPairs bounds the PCG size (default 2,000,000).
	MaxPairs int
	// Theta is the relative-similarity threshold for Matches: a pair is
	// reported when its similarity is at least Theta times the row
	// maximum (default 0.95 — SF similarities are relative, not
	// absolute).
	Theta float64
}

// DefaultMaxPairs bounds the pairwise connectivity graph.
const DefaultMaxPairs = 2_000_000

// Result holds the flooded similarities.
type Result struct {
	c     *rdf.Combined
	sims  map[[2]rdf.NodeID]float64 // (source, target) combined IDs
	best1 map[rdf.NodeID]float64    // per-source row maximum
	iters int
	theta float64
}

// Flood runs similarity flooding over the combined graph.
func Flood(c *rdf.Combined, opt Options) (*Result, error) {
	if opt.Epsilon <= 0 {
		opt.Epsilon = 1e-4
	}
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 100
	}
	if opt.MaxPairs <= 0 {
		opt.MaxPairs = DefaultMaxPairs
	}
	if opt.Theta <= 0 {
		opt.Theta = 0.95
	}

	// PCG nodes and edges: for every predicate label present on both
	// sides, every pair of equally-labelled edges induces the PCG nodes
	// (s1,s2) and (o1,o2) and an edge between them.
	type pair = [2]rdf.NodeID
	index := make(map[pair]int)
	var pairs []pair
	addPair := func(a, b rdf.NodeID) (int, error) {
		k := pair{a, b}
		if i, ok := index[k]; ok {
			return i, nil
		}
		if len(pairs) >= opt.MaxPairs {
			return 0, fmt.Errorf("flooding: PCG exceeds %d pairs", opt.MaxPairs)
		}
		index[k] = len(pairs)
		pairs = append(pairs, k)
		return len(pairs) - 1, nil
	}
	type pcgEdge struct{ from, to int }
	var edges []pcgEdge

	// Group edges by predicate label per side.
	bySide := func(lo, hi int) map[string][]rdf.Triple {
		m := make(map[string][]rdf.Triple)
		for s := lo; s < hi; s++ {
			for _, e := range c.Out(rdf.NodeID(s)) {
				if l := c.Label(e.P); l.Kind == rdf.URI {
					m[l.Value] = append(m[l.Value], rdf.Triple{S: rdf.NodeID(s), P: e.P, O: e.O})
				}
			}
		}
		return m
	}
	e1 := bySide(0, c.N1)
	e2 := bySide(c.N1, c.N1+c.N2)
	labels := make([]string, 0, len(e1))
	for l := range e1 {
		if _, ok := e2[l]; ok {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	for _, l := range labels {
		for _, t1 := range e1[l] {
			for _, t2 := range e2[l] {
				si, err := addPair(t1.S, t2.S)
				if err != nil {
					return nil, err
				}
				oi, err := addPair(t1.O, t2.O)
				if err != nil {
					return nil, err
				}
				edges = append(edges, pcgEdge{si, oi}, pcgEdge{oi, si})
			}
		}
	}

	// Initial similarities from labels.
	sigma0 := make([]float64, len(pairs))
	for i, pr := range pairs {
		la, lb := c.Label(pr[0]), c.Label(pr[1])
		switch {
		case la.Kind != lb.Kind:
			// leave 0
		case la == lb && la.Kind != rdf.Blank:
			sigma0[i] = 1
		case la.Kind == rdf.Literal:
			sigma0[i] = 1 - strdist.Normalized(la.Value, lb.Value)
		case la.Kind == rdf.Blank:
			sigma0[i] = 0.1 // weak prior: blanks are at least comparable
		}
	}

	// Inverse-degree propagation weights.
	outDeg := make([]int, len(pairs))
	for _, e := range edges {
		outDeg[e.from]++
	}

	// Fixpoint iteration (the "basic" SF variant with σ0 re-injection
	// and global max normalisation).
	sigma := append([]float64(nil), sigma0...)
	next := make([]float64, len(pairs))
	iters := 0
	for ; iters < opt.MaxIterations; iters++ {
		copy(next, sigma0)
		for i := range next {
			next[i] += sigma[i]
		}
		for _, e := range edges {
			next[e.to] += sigma[e.from] / float64(outDeg[e.from])
		}
		maxV := 0.0
		for _, v := range next {
			if v > maxV {
				maxV = v
			}
		}
		if maxV > 0 {
			for i := range next {
				next[i] /= maxV
			}
		}
		delta := 0.0
		for i := range next {
			if d := math.Abs(next[i] - sigma[i]); d > delta {
				delta = d
			}
		}
		sigma, next = next, sigma
		if delta < opt.Epsilon {
			break
		}
	}

	res := &Result{
		c:     c,
		sims:  make(map[[2]rdf.NodeID]float64, len(pairs)),
		best1: make(map[rdf.NodeID]float64),
		iters: iters,
		theta: opt.Theta,
	}
	for i, pr := range pairs {
		if sigma[i] <= 0 {
			continue
		}
		res.sims[pr] = sigma[i]
		if sigma[i] > res.best1[pr[0]] {
			res.best1[pr[0]] = sigma[i]
		}
	}
	return res, nil
}

// Iterations reports the number of flooding rounds.
func (r *Result) Iterations() int { return r.iters }

// PairCount reports the PCG size.
func (r *Result) PairCount() int { return len(r.sims) }

// Similarity returns the flooded similarity of a (source, target) pair of
// combined-graph nodes (0 when the pair never entered the PCG).
func (r *Result) Similarity(n, m rdf.NodeID) float64 {
	return r.sims[[2]rdf.NodeID{n, m}]
}

// MatchesOf returns the target nodes whose similarity with the source node
// reaches Theta times the row maximum — SF's usual relative-threshold
// selection.
func (r *Result) MatchesOf(n rdf.NodeID) []rdf.NodeID {
	best := r.best1[n]
	if best <= 0 {
		return nil
	}
	var out []rdf.NodeID
	for j := 0; j < r.c.N2; j++ {
		m := r.c.FromTarget(rdf.NodeID(j))
		if s := r.sims[[2]rdf.NodeID{n, m}]; s >= r.theta*best {
			out = append(out, m)
		}
	}
	return out
}
