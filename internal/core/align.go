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

	// The class table lists every class's members grouped by color: class
	// col holds members[start[col]:start[col+1]] in ascending node order,
	// so its source members come first and its target members after.
	// Every per-class query reads it. It is built by one counting pass on
	// the first such query, never by the constructors, so an alignment
	// that is never queried that way pays nothing.
	tableOnce sync.Once
	start     []int32
	members   []rdf.NodeID
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

// buildTable fills the class table by one counting pass over the colors.
// It is sized by the partition's largest color, never by the interner,
// which a session may be extending while an older version is queried.
func (a *Alignment) buildTable() {
	colors := a.P.colors
	size := 0
	if len(colors) > 0 {
		size = int(slices.Max(colors)) + 1
	}
	// Count class col into start[col+2], so that after the prefix sum
	// start[col+1] is where the class begins and, once filling has advanced
	// it past the members, where it ends.
	start := make([]int32, size+2)
	for _, col := range colors {
		start[col+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	members := make([]rdf.NodeID, len(colors))
	for n, col := range colors {
		members[start[col+1]] = rdf.NodeID(n)
		start[col+1]++
	}
	a.start, a.members = start[:size+1], members
}

// class returns the combined members of class col, ascending.
func (a *Alignment) class(col Color) []rdf.NodeID {
	a.tableOnce.Do(a.buildTable)
	return a.members[a.start[col]:a.start[col+1]]
}

// sides splits class col into its source and target members, each
// ascending, as combined node IDs.
func (a *Alignment) sides(col Color) (src, tgt []rdf.NodeID) {
	m := a.class(col)
	k, _ := slices.BinarySearch(m, rdf.NodeID(a.C.N1))
	return m[:k], m[k:]
}

// EachClass calls f for every class of the partition in ascending color
// order with its source and target members, each ascending, as combined
// node IDs. The slices belong to the alignment and must not be modified.
func (a *Alignment) EachClass(f func(src, tgt []rdf.NodeID)) {
	a.tableOnce.Do(a.buildTable)
	n1 := rdf.NodeID(a.C.N1)
	lo := a.start[0]
	for _, hi := range a.start[1:] {
		if m := a.members[lo:hi]; len(m) > 0 {
			// Classes are mostly tiny, so a linear split beats a binary
			// search; over all classes it reads each source once.
			k := 0
			for k < len(m) && m[k] < n1 {
				k++
			}
			f(m[:k], m[k:])
		}
		lo = hi
	}
}

// appendMatches appends to dst the G2 node IDs aligned with the combined
// source node cn, ascending.
func (a *Alignment) appendMatches(dst []rdf.NodeID, cn rdf.NodeID) []rdf.NodeID {
	_, tgt := a.sides(a.P.colors[cn])
	for _, cm := range tgt {
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

// Unaligned returns Unaligned_1(λ) and Unaligned_2(λ) (§3.1) as G1 and G2
// node IDs: the source nodes whose class has no target member, and vice
// versa, each ascending. Weights play no part: a class member on the other
// side makes a node aligned whatever θ is.
func (a *Alignment) Unaligned() (src, tgt []rdf.NodeID) {
	n1 := rdf.NodeID(a.C.N1)
	for i, col := range a.P.colors {
		m, n := a.class(col), rdf.NodeID(i)
		if n < n1 && m[len(m)-1] < n1 {
			src = append(src, n)
		} else if n >= n1 && m[0] >= n1 {
			tgt = append(tgt, n-n1)
		}
	}
	return src, tgt
}

// Unaligned returns Unaligned_1(λ) and Unaligned_2(λ) (§3.1) as combined
// node IDs, each ascending.
func Unaligned(c *rdf.Combined, p *Partition) (un1, un2 []rdf.NodeID) {
	un1, un2 = NewAlignment(c, p).Unaligned()
	for i, n := range un2 {
		un2[i] = c.FromTarget(n)
	}
	return un1, un2
}

// AlignedEntityCount returns the number of equivalence classes containing
// nodes from both sides — the duplicate-free count of aligned entities used
// in the paper's Figure 13 ("any two URIs coming from two versions but
// representing the same tuple are counted as one"). The onlyURIs flag
// restricts the count to classes containing a URI node, matching the
// GtoPdb evaluation where ground truth covers resource URIs.
func (a *Alignment) AlignedEntityCount(onlyURIs bool) int {
	total := 0
	a.EachClass(func(src, tgt []rdf.NodeID) {
		if len(src) > 0 && len(tgt) > 0 && (!onlyURIs ||
			slices.ContainsFunc(src, a.C.IsURI) || slices.ContainsFunc(tgt, a.C.IsURI)) {
			total++
		}
	})
	return total
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

// SortNodeIDs sorts a node ID slice in place and returns it. Exported for
// sibling packages that must keep deterministic node orderings.
func SortNodeIDs(ids []rdf.NodeID) []rdf.NodeID {
	slices.Sort(ids)
	return ids
}
