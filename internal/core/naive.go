package core

import "rdfalign/internal/rdf"

// NaiveMaximalBisimulation computes the maximal bisimulation Bisim(G)
// directly from Definition 2, as a greatest-fixpoint iteration over the full
// relation: start with R = {(n, m) | ℓ(n) = ℓ(m)} and repeatedly delete
// pairs that violate the simulation condition in either direction, until no
// pair is deleted.
//
// This is the quadratic reference implementation used to validate
// Proposition 1 (the refinement engine captures Bisim(G)) in tests and to
// ablate the refinement engine in benchmarks. It is exponential-free but
// O(|N|² · avg-deg²) and intended for small graphs only. Being
// interner-free, it also anchors the interning tests as the independent
// reference for the equivalence relation.
func NaiveMaximalBisimulation(g *rdf.Graph) *Relation {
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
			for j := 0; j < n; j++ {
				ni, nj := rdf.NodeID(i), rdf.NodeID(j)
				if !rel.Has(ni, nj) {
					continue
				}
				if !simulatedBy(g, rel, ni, nj) || !simulatedBy(g, rel, nj, ni) {
					rel.Clear(ni, nj)
					changed = true
				}
			}
		}
	}
	return rel
}

// simulatedBy reports whether every outbound pair of n has a matching
// outbound pair of m under rel: ∀ (p,o) ∈ out(n) ∃ (p',o') ∈ out(m) with
// (p,p') ∈ R and (o,o') ∈ R.
func simulatedBy(g *rdf.Graph, rel *Relation, n, m rdf.NodeID) bool {
	for _, en := range g.Out(n) {
		found := false
		for _, em := range g.Out(m) {
			if rel.Has(en.P, em.P) && rel.Has(en.O, em.O) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Relation is a dense binary relation over the nodes of one graph, stored as
// a bitset. It exists to express reference implementations and test oracles.
type Relation struct {
	n    int
	bits []uint64
}

// NewRelation returns the empty relation over n nodes.
func NewRelation(n int) *Relation {
	return &Relation{n: n, bits: make([]uint64, (n*n+63)/64)}
}

func (r *Relation) idx(a, b rdf.NodeID) (int, uint64) {
	i := int(a)*r.n + int(b)
	return i / 64, 1 << (i % 64)
}

// Set adds (a, b).
func (r *Relation) Set(a, b rdf.NodeID) {
	w, m := r.idx(a, b)
	r.bits[w] |= m
}

// Clear removes (a, b).
func (r *Relation) Clear(a, b rdf.NodeID) {
	w, m := r.idx(a, b)
	r.bits[w] &^= m
}

// Clone returns an independent copy of the relation.
func (r *Relation) Clone() *Relation {
	return &Relation{n: r.n, bits: append([]uint64(nil), r.bits...)}
}

// Has reports whether (a, b) is in the relation.
func (r *Relation) Has(a, b rdf.NodeID) bool {
	w, m := r.idx(a, b)
	return r.bits[w]&m != 0
}

// FromPartition converts a partition into the equivalence relation R_λ it
// defines (§2.2), restricted to the same graph.
func FromPartition(p *Partition) *Relation {
	n := p.Len()
	rel := NewRelation(n)
	byColor := make(map[Color][]rdf.NodeID)
	for i, c := range p.colors {
		byColor[c] = append(byColor[c], rdf.NodeID(i))
	}
	for _, members := range byColor {
		for _, a := range members {
			for _, b := range members {
				rel.Set(a, b)
			}
		}
	}
	return rel
}

// Equal reports whether two relations over the same node count coincide.
func (r *Relation) Equal(o *Relation) bool {
	if r.n != o.n {
		return false
	}
	for i := range r.bits {
		if r.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// Size returns the number of pairs in the relation.
func (r *Relation) Size() int {
	total := 0
	for _, w := range r.bits {
		for ; w != 0; w &= w - 1 {
			total++
		}
	}
	return total
}
