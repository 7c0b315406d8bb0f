package rdfalign

import (
	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/similarity"
)

// Relation is the read interface every alignment result implements: a
// relation between the nodes of the source and target graphs together with
// a node distance. Align and (*Aligner).Align return an *Alignment whose
// accessors delegate to exactly one implementation — the partition
// alignment itself (Trivial, Deblank, Hybrid and, with weights, Overlap;
// §3 and §4.3–4.7), which answers every per-class query from one class
// table built on first use, or σEdit-backed (SigmaEdit; §4.2) — so callers
// treat every method uniformly and no accessor branches on the method that
// produced it.
type Relation interface {
	// Aligned reports whether source node n1 (a G1 node ID) is aligned
	// with target node n2 (a G2 node ID).
	Aligned(n1, n2 NodeID) bool
	// Distance returns the distance the relation's underlying model
	// assigns to the pair: σEdit for SigmaEdit, the weighted-partition
	// distance σ_ξ for Overlap, and 0/1 (aligned/unaligned) for the plain
	// partition methods. The result is always in [0, 1].
	Distance(n1, n2 NodeID) float64
	// MatchesOf returns the target node IDs aligned with source node n1.
	MatchesOf(n1 NodeID) []NodeID
	// Pairs visits every aligned pair in sorted order. For SigmaEdit this
	// enumerates the quadratic pair space; prefer Aligned/MatchesOf there.
	Pairs(f func(n1, n2 NodeID))
	// Unaligned returns the source and target node IDs (per-graph) left
	// unaligned by the relation's underlying partition (for SigmaEdit,
	// the hybrid base partition whose leftover nodes σEdit scores).
	Unaligned() (src, tgt []NodeID)
	// AlignedEntityCount returns the duplicate-free aligned entity count
	// of Figure 13: clusters spanning both versions for the partition
	// methods, source nodes with at least one match for SigmaEdit. With
	// onlyURIs set, only entities involving a URI node are counted.
	AlignedEntityCount(onlyURIs bool) int
}

// sigmaRelation backs the SigmaEdit method: Align_θ(σ) uses σ(n, m) ≤ θ
// (§4.1) over the materialised σEdit distance. Its unaligned sets are the
// hybrid base partition's, the leftover nodes σEdit scores.
type sigmaRelation struct {
	c      *rdf.Combined
	hybrid *core.Alignment
	sigma  *similarity.SigmaEdit
	theta  float64
}

func newSigmaRelation(c *rdf.Combined, hybrid *core.Partition, s *similarity.SigmaEdit, theta float64) *sigmaRelation {
	return &sigmaRelation{c: c, hybrid: core.NewAlignment(c, hybrid), sigma: s, theta: theta}
}

func (r *sigmaRelation) Unaligned() (src, tgt []NodeID) { return r.hybrid.Unaligned() }

func (r *sigmaRelation) Aligned(n1, n2 NodeID) bool {
	return r.Distance(n1, n2) <= r.theta
}

func (r *sigmaRelation) Distance(n1, n2 NodeID) float64 {
	return r.sigma.Distance(r.c.FromSource(n1), r.c.FromTarget(n2))
}

func (r *sigmaRelation) MatchesOf(n1 NodeID) []NodeID {
	var out []NodeID
	for j := 0; j < r.c.N2; j++ {
		if r.Aligned(n1, NodeID(j)) {
			out = append(out, NodeID(j))
		}
	}
	return out
}

func (r *sigmaRelation) Pairs(f func(n1, n2 NodeID)) {
	for i := 0; i < r.c.N1; i++ {
		for j := 0; j < r.c.N2; j++ {
			if r.Aligned(NodeID(i), NodeID(j)) {
				f(NodeID(i), NodeID(j))
			}
		}
	}
}

// AlignedEntityCount counts source nodes with at least one match: σEdit
// does not define clusters, so the duplicate-free entity view degenerates
// to the per-source-node view.
func (r *sigmaRelation) AlignedEntityCount(onlyURIs bool) int {
	count := 0
	for i := 0; i < r.c.N1; i++ {
		n := NodeID(i)
		if onlyURIs && !r.c.SourceGraph().IsURI(n) {
			continue
		}
		if len(r.MatchesOf(n)) > 0 {
			count++
		}
	}
	return count
}
