package similarity

import (
	"cmp"
	"math"
	"slices"

	"rdfalign/internal/core"
	"rdfalign/internal/par"
	"rdfalign/internal/rdf"
)

// Overlap returns the overlap similarity of two sets given as element
// slices (duplicates allowed; set semantics applied): |O1 ∩ O2| / |O1 ∪ O2|,
// with overlap(∅, ∅) = 1 by convention (§4.6).
func Overlap[O comparable](o1, o2 []O) float64 {
	s1 := toSet(o1)
	s2 := toSet(o2)
	if len(s1) == 0 && len(s2) == 0 {
		return 1
	}
	inter := 0
	for o := range s1 {
		if _, ok := s2[o]; ok {
			inter++
		}
	}
	union := len(s1) + len(s2) - inter
	return float64(inter) / float64(union)
}

// Diff is the distance counterpart 1 − overlap, with diff(∅, ∅) = 0.
func Diff[O comparable](o1, o2 []O) float64 {
	return 1 - Overlap(o1, o2)
}

func toSet[O comparable](os []O) map[O]struct{} {
	s := make(map[O]struct{}, len(os))
	for _, o := range os {
		s[o] = struct{}{}
	}
	return s
}

// BipartiteEdge is one discovered close pair with its distance.
type BipartiteEdge struct {
	A, B rdf.NodeID
	D    float64
}

// WeightedBipartite is the weighted bipartite graph H = (A, B, M, d) of
// §4.4 produced by the overlap heuristic: A and B are the candidate node
// sets, Edges is M with the distance function d attached.
type WeightedBipartite struct {
	A, B  []rdf.NodeID
	Edges []BipartiteEdge
	// Candidates is the number of (a, b) pairs the prefix filter produced
	// and the overlap screen examined — the matching's work, against
	// len(Edges) as its yield.
	Candidates int
}

// HasEdges reports whether H contains any discovered pair (the termination
// condition of Algorithm 2).
func (h *WeightedBipartite) HasEdges() bool { return len(h.Edges) > 0 }

// DistFunc verifies one candidate pair: it returns the distance and whether
// the pair passes (d ≤ θ, the inclusive Align_θ convention of §4.1).
// Implementations may compute lazily and bail out early (cf.
// strdist.WithinThreshold).
type DistFunc func(a, b rdf.NodeID) (float64, bool)

// OverlapMatch is Algorithm 1 (§4.6): it discovers close pairs between the
// disjoint node sets A and B. Every node is characterised by a set of
// objects (char); an inverted index over B's objects plus frequency-ordered
// prefix filtering yields candidates sharing a discriminating object;
// candidates are screened by overlap(char(a), char(b)) ≥ θ and finally
// verified with the distance function (σ(a, b) ≤ θ).
//
// Prefix length: the paper's pseudocode scans the ⌈kθ⌉ least frequent
// objects of char(a). This implementation deliberately departs from it and
// scans the minimal lossless prefix instead (see prefixLen): at the paper's
// θ = 0.65 that is about a third of the objects rather than two thirds,
// which cuts the candidates screened by an order of magnitude. The
// candidates only the longer prefix would add provably fail the overlap
// screen, so the output is identical to the pseudocode's.
//
// Cancellation: the matching phase can dominate a round's cost (it runs
// edit-distance verification over the candidate pairs), so the hooks'
// context is checked once per source node and additionally once per
// cancelBatch candidates inside each node's verification scan, and the scan
// aborts with the context's error.
//
// Parallelism: with workers > 1 the inverted index over B is built once,
// then workers scan disjoint chunks of A over the shared read-only index,
// verifying their own candidates (the σ/edit-distance verification
// dominates the scan, so it is what parallelises). The chunks' edges are
// merged in source order and finally sorted by (A, B), so the output is
// bit-identical to the sequential scan for every worker count. workers <= 1
// runs sequentially; with workers > 1 both char and dist must be safe for
// concurrent use (the characterisations and distances of Algorithm 2 are
// pure reads).
//
// The output is deterministic: edges are sorted by (A, B).
func OverlapMatch[O cmp.Ordered](a, b []rdf.NodeID, theta float64, char func(rdf.NodeID) []O, dist DistFunc, hooks core.Hooks, workers int) (*WeightedBipartite, error) {
	h := &WeightedBipartite{A: a, B: b}
	if err := hooks.Err(); err != nil {
		return nil, err
	}
	if len(a) == 0 || len(b) == 0 {
		return h, nil
	}
	// Lines 1–6: inverted index, characterisations and frequency counts
	// over B.
	sortedB := make(map[rdf.NodeID][]O, len(b))
	ix := &matchIndex[O]{
		theta:   theta,
		inv:     make(map[O][]rdf.NodeID),
		sortedB: func(m rdf.NodeID) []O { return sortedB[m] },
		charA: func(n rdf.NodeID, sc *matchScratch[O]) []O {
			sc.objs = sc.seen.appendNew(sc.objs[:0], char(n))
			return sc.objs
		},
		dist: dist,
	}
	var sc matchScratch[O]
	for _, m := range b {
		sc.objs = sc.seen.appendNew(sc.objs[:0], char(m))
		sorted := slices.Clone(sc.objs)
		slices.Sort(sorted)
		sortedB[m] = sorted
		for _, o := range sc.objs {
			ix.inv[o] = append(ix.inv[o], m)
		}
	}
	if err := ix.scan(h, hooks, workers); err != nil {
		return nil, err
	}
	return h, nil
}

// cancelBatch bounds cancellation latency inside one source node's
// verification scan: the hooks' context is re-checked every cancelBatch
// candidates, so a node with a huge candidate list cannot keep running
// distance verification long after the context is cancelled.
const cancelBatch = 64

// parallelMatchMin is the minimum source-set size at which the parallel
// scan pays for its coordination overhead.
const parallelMatchMin = 16

// matchIndex is the shared read-only state of one matching scan (lines 9–19
// of Algorithm 1): the inverted index and sorted characterisations over B,
// the characterisation of A nodes, and the verification distance. A scan
// never mutates the index, which is what makes the worker fan-out safe; the
// candidate screen intersects pre-sorted object slices (a merge, no
// per-pair set allocation) and is value-identical to
// Overlap(char(a), char(b)) ≥ θ because both slices are deduplicated.
type matchIndex[O cmp.Ordered] struct {
	theta float64
	// inv maps an object to the B nodes whose characterisation contains
	// it. Posting-list order is irrelevant (candidates are deduplicated
	// and sorted); only membership and length (the frequency used by the
	// prefix filter) are.
	inv map[O][]rdf.NodeID
	// sortedB returns a B node's deduplicated characterisation in
	// ascending order, for the merge-intersection screen.
	sortedB func(rdf.NodeID) []O
	// charA returns an A node's deduplicated characterisation in
	// first-occurrence order (the deterministic tie-break of the
	// frequency sort), possibly in the worker's scratch. The scan treats
	// the slice as read-only.
	charA func(rdf.NodeID, *matchScratch[O]) []O
	dist  DistFunc
}

// matchScratch is one worker's reusable buffers.
type matchScratch[O cmp.Ordered] struct {
	cand    []rdf.NodeID
	byFreq  []O
	sortedA []O
	objs    []O
	seen    seenSet[O]
}

// matchChunk is the result of scanning one chunk of source nodes.
type matchChunk struct {
	edges []BipartiteEdge
	cands int
	err   error
}

// scan runs lines 9–19 over the source nodes h.A, filling in h's edges
// and the number of candidate pairs screened. With workers > 1 and
// enough sources, chunks of h.A are scanned on a par.Ordered pool (about
// four chunks per worker: candidate-list sizes vary wildly, so a static
// split would leave workers idle) and committed in source order, so the
// first error in source order wins; the final (A, B) sort makes the
// output identical for every worker count.
func (ix *matchIndex[O]) scan(h *WeightedBipartite, hooks core.Hooks, workers int) error {
	a := h.A
	workers = min(workers, len(a))
	if len(a) < parallelMatchMin {
		workers = 1
	}
	chunk := len(a)
	if workers > 1 {
		chunk = (len(a) + workers*4 - 1) / (workers * 4)
	}
	rest := a
	next := func() ([]rdf.NodeID, bool) {
		n := min(chunk, len(rest))
		span := rest[:n]
		rest = rest[n:]
		return span, n > 0
	}
	scratch := make([]matchScratch[O], max(workers, 1))
	work := func(w int, span []rdf.NodeID, r *matchChunk) {
		ix.scanRange(span, hooks, &scratch[w], r)
	}
	commit := func(r *matchChunk) error {
		if h.Edges == nil {
			h.Edges, r.edges = r.edges, nil // a sequential scan's one chunk: no copy
		} else {
			h.Edges = append(h.Edges, r.edges...)
		}
		h.Candidates += r.cands
		return r.err
	}
	if err := par.Ordered(workers, next, work, commit); err != nil {
		return err
	}
	slices.SortFunc(h.Edges, func(x, y BipartiteEdge) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return nil
}

// scanRange scans one contiguous run of source nodes into r, reusing its
// edge slice: the discovered edges, the number of candidate pairs
// screened, or the hooks' error on cancellation.
func (ix *matchIndex[O]) scanRange(a []rdf.NodeID, hooks core.Hooks, sc *matchScratch[O], r *matchChunk) {
	*r = matchChunk{edges: r.edges[:0]}
	for _, n := range a {
		if r.err = hooks.Err(); r.err != nil {
			return
		}
		objs := ix.charA(n, sc)
		k := len(objs)
		if k == 0 {
			continue
		}
		// Line 11: sort char(n) by ascending frequency in the index
		// (absent objects have frequency 0); ties broken
		// deterministically by scan position, via stable sort.
		sc.byFreq = append(sc.byFreq[:0], objs...)
		byFreq := sc.byFreq
		slices.SortStableFunc(byFreq, func(x, y O) int {
			return len(ix.inv[x]) - len(ix.inv[y])
		})
		sc.sortedA = append(sc.sortedA[:0], objs...)
		slices.Sort(sc.sortedA)
		prefix := prefixLen(k, ix.theta)
		// The candidates are the B nodes posted under the prefix objects,
		// sorted and deduplicated.
		cand := sc.cand[:0]
		for _, o := range byFreq[:prefix] {
			cand = append(cand, ix.inv[o]...)
		}
		slices.Sort(cand)
		cand = slices.Compact(cand)
		sc.cand = cand
		r.cands += len(cand)
		// Lines 14–19: overlap screen then distance verification.
		for ci, m := range cand {
			if ci%cancelBatch == cancelBatch-1 {
				if r.err = hooks.Err(); r.err != nil {
					return
				}
			}
			sb := ix.sortedB(m)
			inter := sortedIntersect(sc.sortedA, sb)
			union := k + len(sb) - inter
			if float64(inter)/float64(union) < ix.theta {
				continue
			}
			if d, ok := ix.dist(n, m); ok {
				r.edges = append(r.edges, BipartiteEdge{A: n, B: m, D: d})
			}
		}
	}
}

// sortedIntersect counts the common elements of two ascending, duplicate-
// free slices.
func sortedIntersect[O cmp.Ordered](x, y []O) int {
	i, j, n := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case y[j] < x[i]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// prefixLen returns how many of a source node's k least frequent objects
// the filter probes: p = k − minInter + 1, where minInter is the smallest i
// with float64(i)/float64(k) >= θ. This deliberately departs from the
// paper's ⌈kθ⌉ (Algorithm 1) without changing any output.
//
// Proof: union >= k and correctly rounded division is monotone, so a pair
// passing the screen (inter/union >= θ) has float64(inter)/float64(k) >= θ,
// i.e. inter >= minInter, while a b sharing none of the first p objects
// has inter <= k − p < minInter; the paper's longer prefix only adds
// candidates that fail the screen. Computing minInter with the screen's
// own float comparison keeps pairs at exactly θ, which ⌊(1−θ)k⌋+1 can
// drop. p is minimal: with one object fewer, a b equal to a's minInter
// most frequent objects passes the screen unprobed. p is 0 when no
// overlap reaches θ.
func prefixLen(k int, theta float64) int {
	minInter := int(math.Ceil(float64(k) * theta))
	if minInter < 0 {
		minInter = 0
	}
	for minInter > 0 && float64(minInter-1)/float64(k) >= theta {
		minInter--
	}
	for minInter <= k && float64(minInter)/float64(k) < theta {
		minInter++
	}
	if minInter == 0 {
		return k
	}
	return k - minInter + 1
}

// seenSet is a reusable set for deduplicating characterisations; the zero
// value is ready to use.
type seenSet[O comparable] struct{ m map[O]struct{} }

// seenSetKeep bounds the sets appendNew keeps for its next call. Clearing
// a map costs its capacity, so a set that held a long characterisation is
// dropped rather than cleared before every short one, and a new set starts
// no larger than the bound.
const seenSetKeep = 64

// appendNew appends to dst the distinct elements of objs in first-
// occurrence order.
func (s *seenSet[O]) appendNew(dst, objs []O) []O {
	if s.m == nil || len(s.m) > seenSetKeep {
		s.m = make(map[O]struct{}, min(len(objs), seenSetKeep))
	} else {
		clear(s.m)
	}
	for _, o := range objs {
		if _, ok := s.m[o]; !ok {
			s.m[o] = struct{}{}
			dst = append(dst, o)
		}
	}
	return dst
}
