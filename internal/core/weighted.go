package core

import (
	"rdfalign/internal/rdf"
)

// OPlus is the capped addition operator ⊕ of §4.1 used to combine distance
// values so the result stays in [0, 1]: x ⊕ y = min{x + y, 1}.
func OPlus(x, y float64) float64 {
	s := x + y
	if s > 1 {
		return 1
	}
	return s
}

// DefaultEpsilon is the weight-stabilisation threshold for weighted
// refinement (§4.5: iterate "until the weight assigned to any node changes
// by less than some fixed small value ε > 0").
const DefaultEpsilon = 1e-9

// Weighted is a weighted partition ξ = (λ, ω) (§4.3): every node belongs to
// exactly one cluster and additionally carries a confidence weight in
// [0, 1], interpreted as the distance of the node from the center of its
// cluster.
type Weighted struct {
	P *Partition
	W []float64
}

// NewWeighted pairs a partition with the constant-zero weight function
// (written (λ, 0) in the paper).
func NewWeighted(p *Partition) *Weighted {
	return &Weighted{P: p, W: make([]float64, p.Len())}
}

// Distance is the node distance function σ_ξ induced by the weighted
// partition (§4.3 equation 5): ω(n) ⊕ ω(m) when the nodes share a cluster,
// and 1 otherwise.
func (xi *Weighted) Distance(n, m rdf.NodeID) float64 {
	if xi.P.colors[n] != xi.P.colors[m] {
		return 1
	}
	return OPlus(xi.W[n], xi.W[m])
}

// reweight computes reweight_ω(n) (§4.5):
//
//	⊕ { (ω(p) ⊕ ω(o)) / |out(n)|  |  (p,o) ∈ out(n) }
//
// For nodes with no outgoing edges the weight is left unchanged.
func reweight(g *rdf.Graph, w []float64, n rdf.NodeID) float64 {
	out := g.Out(n)
	if len(out) == 0 {
		return w[n]
	}
	deg := float64(len(out))
	acc := 0.0
	for _, e := range out {
		acc = OPlus(acc, OPlus(w[e.P], w[e.O])/deg)
	}
	return acc
}
