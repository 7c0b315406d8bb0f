package similarity

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rdfalign/internal/core"
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
// dominates the scan, so it is what parallelises). Per-worker edge batches
// are merged in source order and finally sorted by (A, B), so the output is
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
		charA:   func(n rdf.NodeID) []O { return dedup(char(n)) },
		dist:    dist,
	}
	for _, m := range b {
		objs := dedup(char(m))
		sorted := slices.Clone(objs)
		slices.Sort(sorted)
		sortedB[m] = sorted
		for _, o := range objs {
			ix.inv[o] = append(ix.inv[o], m)
		}
	}
	edges, cands, err := ix.scan(a, hooks, workers)
	if err != nil {
		return nil, err
	}
	h.Edges, h.Candidates = edges, cands
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
	// frequency sort). The scan treats the slice as read-only.
	charA func(rdf.NodeID) []O
	dist  DistFunc
}

// matchScratch is one worker's reusable buffers.
type matchScratch[O cmp.Ordered] struct {
	seen    map[rdf.NodeID]int
	stamp   int
	cand    []rdf.NodeID
	byFreq  []O
	sortedA []O
}

// scan runs lines 9–19 over the source nodes a, returning the discovered
// edges and the number of candidate pairs screened. With workers > 1 and
// enough sources, disjoint chunks of a are scanned concurrently and the
// per-chunk edge batches concatenated in chunk (= source) order; the final
// (A, B) sort makes the output identical either way.
func (ix *matchIndex[O]) scan(a []rdf.NodeID, hooks core.Hooks, workers int) ([]BipartiteEdge, int, error) {
	var edges []BipartiteEdge
	var cands int
	var err error
	if workers > len(a) {
		workers = len(a)
	}
	if workers <= 1 || len(a) < parallelMatchMin {
		edges, cands, err = ix.scanRange(a, hooks, &matchScratch[O]{seen: make(map[rdf.NodeID]int)})
	} else {
		edges, cands, err = ix.scanParallel(a, hooks, workers)
	}
	if err != nil {
		return nil, 0, err
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	return edges, cands, nil
}

// scanParallel fans the scan out over a worker pool. Chunks are claimed
// through an atomic cursor (candidate-list sizes vary wildly, so static
// splitting would leave workers idle) but results land in a per-chunk slot,
// so the merge is in chunk order and the first error in chunk order wins —
// both independent of scheduling.
func (ix *matchIndex[O]) scanParallel(a []rdf.NodeID, hooks core.Hooks, workers int) ([]BipartiteEdge, int, error) {
	chunk := (len(a) + workers*4 - 1) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	nchunks := (len(a) + chunk - 1) / chunk
	chunkEdges := make([][]BipartiteEdge, nchunks)
	chunkCands := make([]int, nchunks)
	chunkErr := make([]error, nchunks)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &matchScratch[O]{seen: make(map[rdf.NodeID]int)}
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				lo := ci * chunk
				hi := lo + chunk
				if hi > len(a) {
					hi = len(a)
				}
				chunkEdges[ci], chunkCands[ci], chunkErr[ci] = ix.scanRange(a[lo:hi], hooks, sc)
				if chunkErr[ci] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	total, cands := 0, 0
	for ci := range chunkEdges {
		if chunkErr[ci] != nil {
			return nil, 0, chunkErr[ci]
		}
		total += len(chunkEdges[ci])
		cands += chunkCands[ci]
	}
	edges := make([]BipartiteEdge, 0, total)
	for _, ce := range chunkEdges {
		edges = append(edges, ce...)
	}
	return edges, cands, nil
}

// scanRange scans one contiguous run of source nodes, returning the
// discovered edges and the number of candidate pairs screened.
func (ix *matchIndex[O]) scanRange(a []rdf.NodeID, hooks core.Hooks, sc *matchScratch[O]) ([]BipartiteEdge, int, error) {
	var out []BipartiteEdge
	cands := 0
	for _, n := range a {
		if err := hooks.Err(); err != nil {
			return nil, 0, err
		}
		objs := ix.charA(n)
		k := len(objs)
		if k == 0 {
			continue
		}
		// Line 11: sort char(n) by ascending frequency in the index
		// (absent objects have frequency 0); ties broken
		// deterministically by scan position, via stable sort.
		sc.byFreq = append(sc.byFreq[:0], objs...)
		byFreq := sc.byFreq
		sort.SliceStable(byFreq, func(i, j int) bool {
			return len(ix.inv[byFreq[i]]) < len(ix.inv[byFreq[j]])
		})
		sc.sortedA = append(sc.sortedA[:0], objs...)
		slices.Sort(sc.sortedA)
		prefix := prefixLen(k, ix.theta)
		sc.stamp++
		cand := sc.cand[:0]
		for i := 0; i < prefix; i++ {
			for _, m := range ix.inv[byFreq[i]] {
				if sc.seen[m] != sc.stamp {
					sc.seen[m] = sc.stamp
					cand = append(cand, m)
				}
			}
		}
		sc.cand = cand
		cands += len(cand)
		core.SortNodeIDs(cand)
		// Lines 14–19: overlap screen then distance verification.
		for ci, m := range cand {
			if ci%cancelBatch == cancelBatch-1 {
				if err := hooks.Err(); err != nil {
					return nil, 0, err
				}
			}
			sb := ix.sortedB(m)
			inter := sortedIntersect(sc.sortedA, sb)
			union := k + len(sb) - inter
			if float64(inter)/float64(union) < ix.theta {
				continue
			}
			if d, ok := ix.dist(n, m); ok {
				out = append(out, BipartiteEdge{A: n, B: m, D: d})
			}
		}
	}
	return out, cands, nil
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

func dedup[O comparable](objs []O) []O {
	seen := make(map[O]struct{}, len(objs))
	out := objs[:0:0]
	for _, o := range objs {
		if _, ok := seen[o]; !ok {
			seen[o] = struct{}{}
			out = append(out, o)
		}
	}
	return out
}
