package core

import (
	"slices"
	"sync"

	"rdfalign/internal/rdf"
)

// Alignment is the relation Align(λ) ⊆ N1 × N2 defined by a partition of a
// combined graph (§3.1), optionally restricted by a weighted partition's
// threshold (§4.3: Align_θ(ξ) additionally requires ω(n) ⊕ ω(m) ≤ θ).
//
// Every thresholded alignment in this repository uses the inclusive
// convention of the paper's Align_θ definition (§4.1): a pair at distance
// exactly θ is aligned. σEdit (relation.go), the overlap verification
// (similarity.OverlapMatch's distance functions, strdist.WithinThreshold)
// and this weighted alignment all agree.
type Alignment struct {
	C *rdf.Combined
	P *Partition
	// W and Theta are set for alignments defined by a weighted partition;
	// W is nil for plain partition alignments.
	W     []float64
	Theta float64

	// targets indexes the target nodes by color for MatchesOf and Pairs:
	// each entry is color<<32 | node, sorted, so one class's target
	// members form one run in ascending node order. Built on the first
	// call that needs it, never by the constructors, so an alignment that
	// is never queried that way pays nothing.
	targetsOnce sync.Once
	targets     []uint64
}

// NewAlignment wraps a partition alignment Align(λ).
func NewAlignment(c *rdf.Combined, p *Partition) *Alignment {
	return &Alignment{C: c, P: p}
}

// NewWeightedAlignment wraps Align_θ(ξ).
func NewWeightedAlignment(c *rdf.Combined, xi *Weighted, theta float64) *Alignment {
	return &Alignment{C: c, P: xi.P, W: xi.W, Theta: theta}
}

// Aligned reports whether the pair (n1, n2) — given as G1 and G2 node IDs —
// is in the alignment.
func (a *Alignment) Aligned(n1, n2 rdf.NodeID) bool {
	cn := a.C.FromSource(n1)
	cm := a.C.FromTarget(n2)
	if a.P.colors[cn] != a.P.colors[cm] {
		return false
	}
	if a.W != nil {
		return OPlus(a.W[cn], a.W[cm]) <= a.Theta
	}
	return true
}

// Distance returns the node distance the alignment's model assigns to the
// pair (n1, n2): σ_ξ = ω(n) ⊕ ω(m) within a shared cluster for weighted
// alignments (§4.3 equation 5), 0/1 (same/different class) for plain
// partition alignments, and 1 across clusters in both cases.
func (a *Alignment) Distance(n1, n2 rdf.NodeID) float64 {
	cn := a.C.FromSource(n1)
	cm := a.C.FromTarget(n2)
	if a.P.colors[cn] != a.P.colors[cm] {
		return 1
	}
	if a.W != nil {
		return OPlus(a.W[cn], a.W[cm])
	}
	return 0
}

// classTargets returns the run of the target index holding the combined
// target nodes colored col, ascending, building the index on first use.
func (a *Alignment) classTargets(col Color) []uint64 {
	a.targetsOnce.Do(func() {
		t := make([]uint64, a.C.N2)
		for i := range t {
			n := a.C.N1 + i
			t[i] = uint64(uint32(a.P.colors[n]))<<32 | uint64(n)
		}
		slices.Sort(t)
		a.targets = t
	})
	key := uint64(uint32(col)) << 32
	i, _ := slices.BinarySearch(a.targets, key)
	j := i
	for j < len(a.targets) && a.targets[j]&^0xFFFFFFFF == key {
		j++
	}
	return a.targets[i:j]
}

// appendMatches appends to dst the G2 node IDs aligned with the combined
// source node cn, ascending.
func (a *Alignment) appendMatches(dst []rdf.NodeID, cn rdf.NodeID) []rdf.NodeID {
	for _, e := range a.classTargets(a.P.colors[cn]) {
		cm := rdf.NodeID(uint32(e))
		if a.W != nil && OPlus(a.W[cn], a.W[cm]) > a.Theta {
			continue
		}
		dst = append(dst, a.C.ToTarget(cm))
	}
	return dst
}

// MatchesOf returns the sorted G2 node IDs aligned with the G1 node n1.
func (a *Alignment) MatchesOf(n1 rdf.NodeID) []rdf.NodeID {
	return a.appendMatches(nil, a.C.FromSource(n1))
}

// Pairs calls f for every aligned pair, in sorted (n1, n2) order. Intended
// for tests and tools; the pair set can be quadratic in pathological cases.
func (a *Alignment) Pairs(f func(n1, n2 rdf.NodeID)) {
	var buf []rdf.NodeID
	for n1 := 0; n1 < a.C.N1; n1++ {
		cn := rdf.NodeID(n1)
		buf = a.appendMatches(buf[:0], cn)
		for _, n2 := range buf {
			f(cn, n2)
		}
	}
}

// PairCount returns |Align|.
func (a *Alignment) PairCount() int {
	total := 0
	a.Pairs(func(_, _ rdf.NodeID) { total++ })
	return total
}

// AlignedEntityCount returns the number of equivalence classes containing
// nodes from both sides — the duplicate-free count of aligned entities used
// in the paper's Figure 13 ("any two URIs coming from two versions but
// representing the same tuple are counted as one"). The onlyURIs flag
// restricts the count to classes containing a URI node, matching the
// GtoPdb evaluation where ground truth covers resource URIs.
func (a *Alignment) AlignedEntityCount(onlyURIs bool) int {
	type info struct {
		src, tgt bool
		uri      bool
	}
	m := make(map[Color]*info)
	for i, col := range a.P.colors {
		inf := m[col]
		if inf == nil {
			inf = &info{}
			m[col] = inf
		}
		n := rdf.NodeID(i)
		if i < a.C.N1 {
			inf.src = true
		} else {
			inf.tgt = true
		}
		if a.C.IsURI(n) {
			inf.uri = true
		}
	}
	total := 0
	for _, inf := range m {
		if inf.src && inf.tgt && (!onlyURIs || inf.uri) {
			total++
		}
	}
	return total
}

// HasCrossover verifies the crossover property of partition-defined
// alignments (§3.1): whenever (n,m), (n,m') and (n',m) are aligned, so is
// (n',m'). It holds by construction for Alignment; the check exists for the
// property tests.
func (a *Alignment) HasCrossover() bool {
	type pair struct{ n1, n2 rdf.NodeID }
	pairs := map[pair]bool{}
	bySrc := map[rdf.NodeID][]rdf.NodeID{}
	byTgt := map[rdf.NodeID][]rdf.NodeID{}
	a.Pairs(func(n1, n2 rdf.NodeID) {
		pairs[pair{n1, n2}] = true
		bySrc[n1] = append(bySrc[n1], n2)
		byTgt[n2] = append(byTgt[n2], n1)
	})
	for p := range pairs {
		for _, m2 := range bySrc[p.n1] {
			for _, n2 := range byTgt[p.n2] {
				if !pairs[pair{n2, m2}] {
					return false
				}
			}
		}
	}
	return true
}

// edgeSig is the color image of a triple under a partition.
type edgeSig struct {
	s, p, o Color
}

// EdgeAlignStats reports how many edge signatures — triples mapped through
// λ as (λ(s), λ(p), λ(o)) — occur in the source version, the target
// version, and both. It is the basis of the aligned-edge ratios of
// Figures 10 and 11: "edges using precisely the same identifiers are
// counted precisely once" corresponds to working with signature sets.
type EdgeAlignStats struct {
	Source int // distinct signatures among G1 edges
	Target int // distinct signatures among G2 edges
	Common int // signatures occurring on both sides
}

// Union returns |sig(E1) ∪ sig(E2)|.
func (s EdgeAlignStats) Union() int { return s.Source + s.Target - s.Common }

// Ratio returns the aligned-edge ratio |sig(E1) ∩ sig(E2)| / |sig(E1) ∪
// sig(E2)| ∈ [0, 1]; 1 for a complete alignment of identical versions.
func (s EdgeAlignStats) Ratio() float64 {
	u := s.Union()
	if u == 0 {
		return 1
	}
	return float64(s.Common) / float64(u)
}

// EdgeAlignment computes EdgeAlignStats for a partition over a combined
// graph.
func EdgeAlignment(c *rdf.Combined, p *Partition) EdgeAlignStats {
	const (
		inSrc = 1 << 0
		inTgt = 1 << 1
	)
	seen := make(map[edgeSig]uint8, c.NumTriples())
	n1 := rdf.NodeID(c.N1)
	c.EachTriple(func(t rdf.Triple) bool {
		sig := edgeSig{s: p.colors[t.S], p: p.colors[t.P], o: p.colors[t.O]}
		if t.S < n1 {
			seen[sig] |= inSrc
		} else {
			seen[sig] |= inTgt
		}
		return true
	})
	var st EdgeAlignStats
	for _, sides := range seen {
		if sides&inSrc != 0 {
			st.Source++
		}
		if sides&inTgt != 0 {
			st.Target++
		}
		if sides == inSrc|inTgt {
			st.Common++
		}
	}
	return st
}

// AlignedNodeStats counts, per side, how many nodes are aligned (belong to a
// class with members on the opposite side), optionally restricted to URIs.
type AlignedNodeStats struct {
	Source int
	Target int
}

// AlignedNodes computes AlignedNodeStats for a partition.
func AlignedNodes(c *rdf.Combined, p *Partition, onlyURIs bool) AlignedNodeStats {
	sides := newClassSides(c, p)
	var st AlignedNodeStats
	for i, col := range p.colors {
		n := rdf.NodeID(i)
		if onlyURIs && !c.IsURI(n) {
			continue
		}
		sc := sides.at(col)
		if i < c.N1 {
			if sc.tgt > 0 {
				st.Source++
			}
		} else {
			if sc.src > 0 {
				st.Target++
			}
		}
	}
	return st
}

// SortNodeIDs sorts a node ID slice in place and returns it. Exported for
// sibling packages that must keep deterministic node orderings.
func SortNodeIDs(ids []rdf.NodeID) []rdf.NodeID {
	slices.Sort(ids)
	return ids
}
