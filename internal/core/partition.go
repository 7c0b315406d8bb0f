package core

import "rdfalign/internal/rdf"

// Partition assigns a color to every node of a graph (§2.2). The zero value
// is not usable; construct with LabelPartition, TrivialPartition or Clone.
type Partition struct {
	in     *Interner
	colors []Color
}

// NewPartition wraps an explicit color assignment. The slice is owned by the
// partition afterwards.
func NewPartition(in *Interner, colors []Color) *Partition {
	return &Partition{in: in, colors: colors}
}

// LabelPartition returns the node labeling partition ℓ_G: nodes grouped by
// label, with all blank nodes in one class (§2.2). Colors are allocated in
// first-use order. On a fresh interner the label maps are presized from
// g.DistinctLabels — on a union, the source side's counts — so they start
// near their final size without room reserved for every union node.
func LabelPartition(g *rdf.Graph, in *Interner) *Partition {
	in.reserveBase(g.DistinctLabels())
	colors := in.allocColors(g.NumNodes())
	for i := range colors {
		colors[i] = in.Base(g.Label(rdf.NodeID(i)))
	}
	return &Partition{in: in, colors: colors}
}

// TrivialPartition returns λ_Trivial (§3.1): non-blank nodes are colored by
// their label; each blank node is colored by itself (a fresh color), so
// trivial alignment aligns only non-blank nodes with equal labels.
func TrivialPartition(g *rdf.Graph, in *Interner) *Partition {
	colors := in.allocColors(g.NumNodes())
	g.Nodes(func(n rdf.NodeID) {
		if g.IsBlank(n) {
			colors[n] = in.Fresh()
		} else {
			colors[n] = in.Base(g.Label(n))
		}
	})
	return &Partition{in: in, colors: colors}
}

// Interner returns the interner the partition's colors live in.
func (p *Partition) Interner() *Interner { return p.in }

// Len returns the number of nodes covered.
func (p *Partition) Len() int { return len(p.colors) }

// Color returns λ(n).
func (p *Partition) Color(n rdf.NodeID) Color { return p.colors[n] }

// Colors returns the underlying color slice, indexed by node ID. The slice
// is owned by the partition and must not be modified; it lets incremental
// consumers diff two partitions in O(N) without per-node method calls.
func (p *Partition) Colors() []Color { return p.colors }

// Clone returns a deep copy sharing the interner. The copy's color array
// comes from the interner's storage backend, like the originals from
// LabelPartition and TrivialPartition.
func (p *Partition) Clone() *Partition {
	colors := p.in.allocColors(len(p.colors))
	copy(colors, p.colors)
	return &Partition{in: p.in, colors: colors}
}

// NumClasses returns the number of distinct colors in use.
func (p *Partition) NumClasses() int {
	seen := make(map[Color]struct{}, len(p.colors)/2+1)
	for _, c := range p.colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// Classes returns the equivalence classes as color → sorted member list.
func (p *Partition) Classes() map[Color][]rdf.NodeID {
	m := make(map[Color][]rdf.NodeID)
	for n, c := range p.colors {
		m[c] = append(m[c], rdf.NodeID(n))
	}
	return m
}

// SameClass reports λ(n) == λ(m).
func (p *Partition) SameClass(n, m rdf.NodeID) bool {
	return p.colors[n] == p.colors[m]
}

// Equivalent reports whether a and b induce the same equivalence relation
// (λ1 ≡ λ2, §2.2). The two partitions must cover the same node count.
func Equivalent(a, b *Partition) bool {
	if len(a.colors) != len(b.colors) {
		return false
	}
	return equivalentColors(a.colors, b.colors)
}

// equivalentColors reports whether two colorings of the same node set induce
// the same grouping, by checking that the color-to-color correspondence is a
// bijection in a single pass.
func equivalentColors(a, b []Color) bool {
	fwd := make(map[Color]Color, len(a)/2+1)
	bwd := make(map[Color]Color, len(a)/2+1)
	for i, ca := range a {
		cb := b[i]
		if prev, ok := fwd[ca]; ok {
			if prev != cb {
				return false
			}
		} else {
			fwd[ca] = cb
		}
		if prev, ok := bwd[cb]; ok {
			if prev != ca {
				return false
			}
		} else {
			bwd[cb] = ca
		}
	}
	return true
}

// Finer reports whether R_a ⊆ R_b, i.e. every class of a is contained in a
// class of b (§2.2).
func Finer(a, b *Partition) bool {
	if len(a.colors) != len(b.colors) {
		return false
	}
	// a is finer than b iff the map colorOf_a → colorOf_b is a function.
	f := make(map[Color]Color, len(a.colors)/2+1)
	for i, ca := range a.colors {
		cb := b.colors[i]
		if prev, ok := f[ca]; ok {
			if prev != cb {
				return false
			}
		} else {
			f[ca] = cb
		}
	}
	return true
}

// BlankOut returns the partition Blank(λ, X) of §3.4 equation (3): nodes in
// x are recolored with the neutral blank color, all other nodes keep their
// color.
func BlankOut(p *Partition, x []rdf.NodeID) *Partition {
	q := p.Clone()
	for _, n := range x {
		q.colors[n] = p.in.Blank()
	}
	return q
}
