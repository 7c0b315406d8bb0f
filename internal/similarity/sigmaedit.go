// Package similarity implements Section 4 of Buneman & Staworko, "RDF Graph
// Alignment with Bisimulation" (PVLDB 2016): the σEdit node distance (§4.2)
// that refines the hybrid alignment with string edit distance on literals
// and graph edit distance on non-literals, and its scalable approximation —
// weighted partitions built with the overlap heuristic (§4.4–4.7,
// Algorithms 1 and 2).
package similarity

import (
	"fmt"
	"math"
	"slices"

	"rdfalign/internal/core"
	"rdfalign/internal/hungarian"
	"rdfalign/internal/rdf"
	"rdfalign/internal/strdist"
)

// SigmaEditOptions configures the σEdit computation.
type SigmaEditOptions struct {
	// Epsilon is the fixpoint stabilisation threshold for the distance
	// propagation; DefaultEpsilon when zero.
	Epsilon float64
	// MaxPairs guards against the quadratic materialisation the paper
	// warns about: NewSigmaEdit fails if the unaligned non-literal pair
	// matrix would exceed this many entries. Default 4,000,000.
	MaxPairs int
	// Hooks threads cancellation and progress through the propagation:
	// the context is checked once per matrix row, and a StageSigmaEdit
	// event is reported after each round. The zero value disables both.
	Hooks core.Hooks
	// MaxDepth > 0 caps the distance propagation at that many applied
	// rounds — the σEdit counterpart of bounded-depth k-bisimulation
	// (core.Engine.MaxDepth): entries then reflect edit costs propagated
	// along paths of length at most MaxDepth. 0 propagates to the exact
	// fixpoint. A propagation that converges before round MaxDepth is
	// unaffected.
	MaxDepth int
}

// DefaultMaxPairs bounds the σEdit pair matrix (the method is the expensive
// baseline; the overlap heuristic exists precisely because this blows up).
const DefaultMaxPairs = 4_000_000

// SigmaEdit is the materialised node distance function σEdit of §4.2. It
// refines the hybrid alignment: aligned pairs are at distance 0, unaligned
// literal pairs get normalised string edit distance, unaligned non-literal
// pairs get a graph-edit-style distance propagated to a fixpoint, where each
// step solves an optimal assignment over the two nodes' outbound edges with
// the Hungarian algorithm, and every remaining pair is at distance 1.
type SigmaEdit struct {
	c      *rdf.Combined
	hybrid *core.Partition

	// Unaligned non-literal nodes per side, and their dense indexes.
	nl1, nl2 []rdf.NodeID
	// lits holds the unaligned literal nodes of both sides, ascending.
	lits []rdf.NodeID
	idx1 map[rdf.NodeID]int
	idx2 map[rdf.NodeID]int
	// dist is the |nl1| × |nl2| matrix of propagated distances.
	dist     []float64
	iters    int
	maxDepth int // propagation round cap; 0 = propagate to the fixpoint
}

// NewSigmaEdit computes σEdit for the combined graph under the given hybrid
// partition. It returns an error if the pair matrix exceeds the configured
// bound.
func NewSigmaEdit(c *rdf.Combined, hybrid *core.Partition, opt SigmaEditOptions) (*SigmaEdit, error) {
	if opt.MaxPairs <= 0 {
		opt.MaxPairs = DefaultMaxPairs
	}
	if opt.Epsilon <= 0 {
		opt.Epsilon = core.DefaultEpsilon
	}
	s := &SigmaEdit{c: c, hybrid: hybrid}
	un1, un2 := core.Unaligned(c, hybrid)
	for _, n := range un1 {
		if c.IsLiteral(n) {
			s.lits = append(s.lits, n)
		} else {
			s.nl1 = append(s.nl1, n)
		}
	}
	for _, n := range un2 {
		if c.IsLiteral(n) {
			s.lits = append(s.lits, n)
		} else {
			s.nl2 = append(s.nl2, n)
		}
	}
	if len(s.nl1)*len(s.nl2) > opt.MaxPairs {
		return nil, fmt.Errorf("similarity: σEdit pair matrix %d×%d exceeds bound %d (use the overlap alignment instead)",
			len(s.nl1), len(s.nl2), opt.MaxPairs)
	}
	s.idx1 = make(map[rdf.NodeID]int, len(s.nl1))
	for i, n := range s.nl1 {
		s.idx1[n] = i
	}
	s.idx2 = make(map[rdf.NodeID]int, len(s.nl2))
	for i, n := range s.nl2 {
		s.idx2[n] = i
	}
	s.dist = make([]float64, len(s.nl1)*len(s.nl2))
	s.maxDepth = opt.MaxDepth
	if err := s.propagate(opt.Epsilon, opt.Hooks); err != nil {
		return nil, err
	}
	return s, nil
}

// Iterations returns the number of propagation rounds run to fixpoint.
func (s *SigmaEdit) Iterations() int { return s.iters }

// MatrixSize returns the dimensions of the materialised pair matrix.
func (s *SigmaEdit) MatrixSize() (rows, cols int) { return len(s.nl1), len(s.nl2) }

// Distance returns σEdit(n, m) for a source-side and a target-side node of
// the combined graph.
func (s *SigmaEdit) Distance(n, m rdf.NodeID) float64 {
	if s.hybrid.Color(n) == s.hybrid.Color(m) {
		return 0
	}
	nLit := s.c.IsLiteral(n)
	mLit := s.c.IsLiteral(m)
	switch {
	case nLit && mLit:
		if s.unaligned(n) && s.unaligned(m) {
			return strdist.Normalized(s.c.Label(n).Value, s.c.Label(m).Value)
		}
		return 1
	case !nLit && !mLit:
		i, ok1 := s.idx1[n]
		j, ok2 := s.idx2[m]
		if ok1 && ok2 {
			return s.dist[i*len(s.nl2)+j]
		}
		return 1
	default:
		return 1
	}
}

// unaligned reports whether a literal node is unaligned under the hybrid
// partition (its class has no member on the opposite side).
func (s *SigmaEdit) unaligned(n rdf.NodeID) bool {
	_, ok := slices.BinarySearch(s.lits, n)
	return ok
}

// maxSigmaEditRounds caps the distance propagation. Entries increase
// monotonically and are bounded by 1, so the cap only turns a would-be
// infinite loop into an ErrNoFixpoint error; tests lower it.
var maxSigmaEditRounds = 1000

// propagate runs the fixpoint iteration: starting from the all-zero matrix,
// each round recomputes every unaligned non-literal pair's distance as the
// optimal matching over their outbound edges; entries increase monotonically
// and are bounded by 1, so the iteration converges. Rounds are quadratic in
// the unaligned node counts, so cancellation is checked per matrix row, not
// just per round.
func (s *SigmaEdit) propagate(eps float64, hooks core.Hooks) error {
	if len(s.nl1) == 0 || len(s.nl2) == 0 {
		return nil
	}
	next := make([]float64, len(s.dist))
	for {
		if s.maxDepth > 0 && s.iters >= s.maxDepth {
			return nil // k-bounded: exactly maxDepth applied rounds
		}
		s.iters++
		if s.iters > maxSigmaEditRounds {
			return &core.NoFixpointError{Stage: core.StageSigmaEdit, Round: s.iters}
		}
		maxDelta := 0.0
		for i, n := range s.nl1 {
			if err := hooks.Err(); err != nil {
				return err
			}
			for j, m := range s.nl2 {
				d := s.matchCost(n, m)
				k := i*len(s.nl2) + j
				if delta := math.Abs(d - s.dist[k]); delta > maxDelta {
					maxDelta = delta
				}
				next[k] = d
			}
		}
		s.dist, next = next, s.dist
		hooks.Round(core.StageSigmaEdit, s.iters, 0)
		if maxDelta < eps {
			return nil
		}
	}
}

// matchCost computes one propagation step for a pair of unaligned
// non-literal nodes: an optimal (Hungarian) matching between out(n) and
// out(m), where matching edge (p,o) to (p',o') costs σ(p,p') ⊕ σ(o,o')
// under the current matrix, unmatched edges cost 1, and the total is
// normalised by f = max(|out(n)|, |out(m)|) (cf. the worked Example 5: u vs
// u' at distance 1/3 from one extra edge over neighbourhoods of size ≤ 3).
func (s *SigmaEdit) matchCost(n, m rdf.NodeID) float64 {
	outN := s.c.Out(n)
	outM := s.c.Out(m)
	if len(outN) == 0 && len(outM) == 0 {
		return 0
	}
	if len(outN) == 0 || len(outM) == 0 {
		return 1
	}
	cost := make([][]float64, len(outN))
	for i, en := range outN {
		row := make([]float64, len(outM))
		for j, em := range outM {
			row[j] = core.OPlus(s.Distance(en.P, em.P), s.Distance(en.O, em.O))
		}
		cost[i] = row
	}
	_, total := hungarian.Solve(cost)
	f := len(outN)
	if len(outM) > f {
		f = len(outM)
	}
	r := f - minInt(len(outN), len(outM)) // unmatched edges, each at cost 1
	d := (total + float64(r)) / float64(f)
	if d > 1 {
		return 1
	}
	return d
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
