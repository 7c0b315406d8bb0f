package core

import (
	"fmt"
	"math"
	"slices"

	"rdfalign/internal/rdf"
)

// This file holds the reference implementations the engine is validated
// against: the one-step refinements of §3.2/§4.5, the full-recolor
// fixpoint loops that apply them to the whole recolor set every round, and
// the quadratic naive relations. Production refinement runs only on the
// incremental worklist (worklist.go); these exist so tests can demand
// color-for-color agreement with the direct reading of the paper.

// RefineStep applies the one-step bisimulation partition refinement
// BisimRefine_X(λ) of §3.2 equation (2): nodes in x are recolored with
// recolor_λ, all other nodes keep their color. The input partition is not
// modified.
func RefineStep(g *rdf.Graph, p *Partition, x []rdf.NodeID) *Partition {
	q := p.Clone()
	var scratch []ColorPair
	for _, n := range x {
		var c Color
		c, scratch = recolor(g, p, n, scratch)
		q.colors[n] = c
	}
	return q
}

// RefineStepOpts is RefineStep with direction and filter options.
func RefineStepOpts(g *rdf.Graph, p *Partition, x []rdf.NodeID, opt RefineOptions) *Partition {
	q := p.Clone()
	var scratch []ColorPair
	for _, n := range x {
		q.colors[n], scratch = recolorOpts(g, p, n, opt, scratch)
	}
	return q
}

// RefineWeightedStep is the one-step weighted refinement BisimRefine_X(ξ) of
// §4.5: colors of nodes in x are refined exactly as in the unweighted case
// (through the same hash-interned recolor, so weighted and unweighted
// fixpoints share one color universe per interner), and their weights are
// recomputed with reweight (synchronously: all reads see the input
// weights).
func RefineWeightedStep(g *rdf.Graph, xi *Weighted, x []rdf.NodeID) *Weighted {
	out := xi.Clone()
	var scratch []ColorPair
	for _, n := range x {
		var c Color
		c, scratch = recolor(g, xi.P, n, scratch)
		out.P.colors[n] = c
		out.W[n] = reweight(g, xi.W, n)
	}
	return out
}

// Clone returns a deep copy sharing the interner: tests that run one
// weighted partition through several in-place steps copy it first.
func (xi *Weighted) Clone() *Weighted {
	return &Weighted{P: xi.P.Clone(), W: slices.Clone(xi.W)}
}

// BlankOutWeighted extends Blank(ξ, X) to weighted partitions (§4.5): a
// copy of xi in which the nodes of x carry the neutral blank color and
// weight 0. Engine.Propagate blanks in place; this is the reference form.
func BlankOutWeighted(xi *Weighted, x []rdf.NodeID) *Weighted {
	out := xi.Clone()
	for _, n := range x {
		out.P.colors[n] = xi.P.in.Blank()
		out.W[n] = 0
	}
	return out
}

// refiner is the fixpoint surface shared by Engine and the fullRecolor
// oracle, so tests can run one workload through both.
type refiner interface {
	Refine(g *rdf.Graph, p *Partition, x []rdf.NodeID) (*Partition, int, error)
	Bisim(g *rdf.Graph, in *Interner) (*Partition, int, error)
	Deblank(g *rdf.Graph, in *Interner) (*Partition, int, error)
	Hybrid(c *rdf.Combined, in *Interner) (*Partition, int, error)
	Propagate(c *rdf.Combined, xi *Weighted, eps float64) (int, []rdf.NodeID, error)
}

// fullRecolor is the full-recolor reference engine: every round recolors
// all of x with RefineStep/RefineStepOpts (or RefineWeightedStep) and
// compares whole colorings for grouping equivalence. Opt and MaxDepth mean
// what they mean on Engine. Its errors are always nil; they exist only to
// satisfy refiner.
type fullRecolor struct {
	Opt      RefineOptions
	MaxDepth int
}

func (f *fullRecolor) Refine(g *rdf.Graph, p *Partition, x []rdf.NodeID) (*Partition, int, error) {
	ext := (&Engine{Opt: f.Opt}).useOpts()
	cur := p
	for iter := 0; ; iter++ {
		if f.MaxDepth > 0 && iter >= f.MaxDepth {
			return cur, iter, nil
		}
		if iter > DefaultMaxIterations {
			panic(fmt.Sprintf("core: reference Refine did not stabilise after %d iterations", iter))
		}
		var next *Partition
		if ext {
			next = RefineStepOpts(g, cur, x, f.Opt)
		} else {
			next = RefineStep(g, cur, x)
		}
		if equivalentColors(cur.colors, next.colors) {
			return cur, iter, nil
		}
		cur = next
	}
}

func (f *fullRecolor) Bisim(g *rdf.Graph, in *Interner) (*Partition, int, error) {
	return f.Refine(g, LabelPartition(g, in), allNodes(g))
}

func (f *fullRecolor) Deblank(g *rdf.Graph, in *Interner) (*Partition, int, error) {
	var blanks []rdf.NodeID
	g.Nodes(func(n rdf.NodeID) {
		if g.IsBlank(n) {
			blanks = append(blanks, n)
		}
	})
	return f.Refine(g, LabelPartition(g, in), blanks)
}

func (f *fullRecolor) Hybrid(c *rdf.Combined, in *Interner) (*Partition, int, error) {
	deblank, it1, _ := f.Deblank(c.Graph, in)
	un := UnalignedNonLiterals(c, deblank)
	p, it2, _ := f.Refine(c.Graph, BlankOut(deblank, un), un)
	return p, it1 + it2, nil
}

// Propagate blanks the unaligned non-literals of ξ and iterates
// RefineWeightedStep on them until the partition is grouping-equivalent and
// no weight moved by eps or more, and writes the last (applied) step into
// xi, like Engine.Propagate. The oracle tracks no change list; it returns
// nil in its place.
func (f *fullRecolor) Propagate(c *rdf.Combined, xi *Weighted, eps float64) (int, []rdf.NodeID, error) {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	un := UnalignedNonLiterals(c, xi.P)
	cur := BlankOutWeighted(xi, un)
	iter := 0
	for ; ; iter++ {
		if f.MaxDepth > 0 && iter >= f.MaxDepth {
			break
		}
		if iter > DefaultMaxIterations {
			panic(fmt.Sprintf("core: reference Propagate did not stabilise after %d iterations", iter))
		}
		next := RefineWeightedStep(c.Graph, cur, un)
		maxDelta := 0.0
		for _, n := range un {
			maxDelta = math.Max(maxDelta, math.Abs(next.W[n]-cur.W[n]))
		}
		stop := maxDelta < eps && equivalentColors(cur.P.colors, next.P.colors)
		cur = next
		if stop {
			iter++
			break
		}
	}
	copy(xi.P.colors, cur.P.colors)
	copy(xi.W, cur.W)
	return iter, nil, nil
}

// NaiveKBisimulation computes the depth-bounded k-bisimulation relation:
// R_0 is label equality and R_d removes from R_{d-1} every pair that is not
// mutually simulated under R_{d-1}. Unlike NaiveMaximalBisimulation's
// asynchronous deletion (which is only correct for the greatest fixpoint),
// the rounds here are synchronized — each round reads the previous round's
// relation — because R_d itself is the specification of what an Engine with
// MaxDepth = d computes (each R_d is an equivalence: the surviving pairs
// are exactly the ones whose outbound class-pair sets under R_{d-1}
// coincide, which is what one refinement round distinguishes). k <= 0 means
// unbounded, converging to Bisim(G). The quadratic per-round cost makes
// this a small-graph test oracle only.
func NaiveKBisimulation(g *rdf.Graph, k int) *Relation {
	n := g.NumNodes()
	rel := NewRelation(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g.Label(rdf.NodeID(i)) == g.Label(rdf.NodeID(j)) {
				rel.Set(rdf.NodeID(i), rdf.NodeID(j))
			}
		}
	}
	for d := 0; k <= 0 || d < k; d++ {
		next := rel.Clone()
		changed := false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ni, nj := rdf.NodeID(i), rdf.NodeID(j)
				if !rel.Has(ni, nj) {
					continue
				}
				if !simulatedBy(g, rel, ni, nj) || !simulatedBy(g, rel, nj, ni) {
					next.Clear(ni, nj)
					changed = true
				}
			}
		}
		rel = next
		if !changed {
			break
		}
	}
	return rel
}

// NaiveDeblankEquivalence computes the equivalence relation the deblanking
// alignment captures (§3.3; the paper's formal definition lives in its
// appendix): the greatest relation R ⊆ label-equality such that blank pairs
// additionally satisfy the bisimulation condition — non-blank nodes are
// compared by label alone (they are never recolored by deblanking), and
// recursion happens only through blank nodes.
//
// This is the quadratic reference oracle for Engine.Deblank, mirroring
// what NaiveMaximalBisimulation is for Engine.Bisim.
func NaiveDeblankEquivalence(g *rdf.Graph) *Relation {
	n := g.NumNodes()
	rel := NewRelation(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g.Label(rdf.NodeID(i)) == g.Label(rdf.NodeID(j)) {
				rel.Set(rdf.NodeID(i), rdf.NodeID(j))
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			if !g.IsBlank(rdf.NodeID(i)) {
				continue // non-blank pairs are frozen at label equality
			}
			for j := 0; j < n; j++ {
				ni, nj := rdf.NodeID(i), rdf.NodeID(j)
				if !rel.Has(ni, nj) {
					continue
				}
				if !simulatedBy(g, rel, ni, nj) || !simulatedBy(g, rel, nj, ni) {
					rel.Clear(ni, nj)
					rel.Clear(nj, ni)
					changed = true
				}
			}
		}
	}
	return rel
}

// UnalignedNonLiterals returns UN(λ) = Unaligned(λ) \ Literals(G) (§3.4
// equation 4) as a single sorted slice of combined-graph node IDs: the
// one-shot reference for the workspace's class index.
func UnalignedNonLiterals(c *rdf.Combined, p *Partition) []rdf.NodeID {
	un1, un2 := Unaligned(c, p)
	out := make([]rdf.NodeID, 0, len(un1)+len(un2))
	for _, n := range un1 {
		if !c.IsLiteral(n) {
			out = append(out, n)
		}
	}
	for _, n := range un2 {
		if !c.IsLiteral(n) {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}
