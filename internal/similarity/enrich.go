package similarity

import (
	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// Enrich incorporates the newly discovered close pairs H into the weighted
// partition ξ (§4.4). H is decomposed into connected components; every
// component becomes a fresh cluster, and each member receives a weight
// consistent with the distances in H: for a source node, half the maximum
// ⊕-shortest-path distance to any target node of the component, and
// symmetrically for target nodes — so that d*(a, b) ≤ w(a) ⊕ w(b) holds for
// every source/target pair of the component.
//
// Only nodes incident to an edge of H participate (isolated nodes are
// removed from consideration, as the paper assumes). Enrich writes into
// xi, which the caller owns, through ws (Workspace.Assign), so the
// workspace's class index and journal follow every assignment; callers
// that need the input ξ afterwards enrich a copy.
//
// Enrich returns the nodes whose color or weight it touched (every member
// of every component of H, ascending) — the change list the incremental
// overlap matcher combines with the propagation change list to invalidate
// exactly the characterisations a round moved.
func Enrich(xi *core.Weighted, h *WeightedBipartite, ws *core.Workspace) []rdf.NodeID {
	if !h.HasEdges() {
		return nil
	}

	// Union-find over the nodes incident to H's edges.
	parent := make(map[rdf.NodeID]rdf.NodeID)
	var find func(rdf.NodeID) rdf.NodeID
	find = func(x rdf.NodeID) rdf.NodeID {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p == x {
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(x, y rdf.NodeID) {
		rx, ry := find(x), find(y)
		if rx != ry {
			parent[rx] = ry
		}
	}
	for _, e := range h.Edges {
		union(e.A, e.B)
	}

	// Group members and edges per component root.
	members := make(map[rdf.NodeID][]rdf.NodeID)
	compEdges := make(map[rdf.NodeID][]BipartiteEdge)
	for n := range parent {
		r := find(n)
		members[r] = append(members[r], n)
	}
	for _, e := range h.Edges {
		r := find(e.A)
		compEdges[r] = append(compEdges[r], e)
	}

	// Deterministic component order.
	roots := make([]rdf.NodeID, 0, len(members))
	for r := range members {
		roots = append(roots, r)
	}
	core.SortNodeIDs(roots)

	aSide := make(map[rdf.NodeID]bool, len(h.A))
	for _, n := range h.A {
		aSide[n] = true
	}
	changed := make([]rdf.NodeID, 0, len(parent))
	var cw compWeights
	for _, r := range roots {
		comp := members[r]
		core.SortNodeIDs(comp)
		weights := cw.compute(comp, compEdges[r], aSide)
		color := xi.P.Interner().Fresh()
		for i, n := range comp {
			ws.Assign(xi, n, color, weights[i])
			changed = append(changed, n)
		}
	}
	core.SortNodeIDs(changed)
	return changed
}

// compWeights computes the enrichment weights of one component of H: for
// each member, half the maximum ⊕-shortest-path distance d* to any
// opposite-side member, via one heap-based Dijkstra per member over the
// component viewed as an undirected graph. Every buffer persists across
// components (growing amortised), so steady-state components allocate
// nothing; the returned weights slice is reused by the next compute call
// and must be consumed before it.
//
// The previous implementation extracted the minimum by scanning a distance
// map — O(|comp|²) per source, O(|comp|³) per component — so one large
// component (e.g. many near-duplicate literals matching a common token)
// stalled the whole alignment; the heap brings a sparse component of n
// members and m edges to O(n·(n+m)·log n) total, and the weights are
// value-identical (Dijkstra's distances do not depend on extract-min tie
// order).
type compWeights struct {
	local   map[rdf.NodeID]int32
	adjHead []int32
	adjNext []int32
	adjTo   []int32
	adjD    []float64
	dist    []float64
	heap    []heapItem
	weights []float64
	isA     []bool
}

// sized returns s resized to length n, reallocating only on growth; the
// contents are unspecified (every caller fully initialises its buffer).
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// heapItem is one pending Dijkstra entry (lazy deletion: stale entries are
// skipped when popped).
type heapItem struct {
	d float64
	v int32
}

func (cw *compWeights) compute(comp []rdf.NodeID, edges []BipartiteEdge, aSide map[rdf.NodeID]bool) []float64 {
	n := len(comp)
	if cw.local == nil {
		cw.local = make(map[rdf.NodeID]int32, n)
	} else {
		clear(cw.local)
	}
	for i, m := range comp {
		cw.local[m] = int32(i)
	}
	// Undirected adjacency as linked half-edge lists over flat arrays.
	cw.adjHead = sized(cw.adjHead, n)
	for i := range cw.adjHead {
		cw.adjHead[i] = -1
	}
	cw.adjNext = cw.adjNext[:0]
	cw.adjTo = cw.adjTo[:0]
	cw.adjD = cw.adjD[:0]
	addHalf := func(from, to int32, d float64) {
		cw.adjNext = append(cw.adjNext, cw.adjHead[from])
		cw.adjTo = append(cw.adjTo, to)
		cw.adjD = append(cw.adjD, d)
		cw.adjHead[from] = int32(len(cw.adjTo) - 1)
	}
	for _, e := range edges {
		a, b := cw.local[e.A], cw.local[e.B]
		addHalf(a, b, e.D)
		addHalf(b, a, e.D)
	}
	cw.dist = sized(cw.dist, n)
	cw.weights = sized(cw.weights, n)
	cw.isA = sized(cw.isA, n)
	isA := cw.isA
	for i, m := range comp {
		isA[i] = aSide[m]
	}
	for src := 0; src < n; src++ {
		cw.dijkstra(int32(src))
		// w(src) = max d* to the opposite side, halved. Unreachable
		// members count as distance 1 (cannot happen within a
		// component, kept as the defensive convention).
		maxD := 0.0
		for j := 0; j < n; j++ {
			if isA[j] == isA[src] {
				continue
			}
			d := cw.dist[j]
			if d > 1 {
				d = 1
			}
			if d > maxD {
				maxD = d
			}
		}
		cw.weights[src] = maxD / 2
	}
	return cw.weights
}

// dijkstra fills cw.dist with the ⊕-shortest-path distances from src
// (sentinel 2 marks unreached nodes; every true distance is ≤ 1 because ⊕
// caps at 1).
func (cw *compWeights) dijkstra(src int32) {
	for i := range cw.dist {
		cw.dist[i] = 2
	}
	cw.dist[src] = 0
	h := cw.heap[:0]
	h = pushHeap(h, heapItem{d: 0, v: src})
	for len(h) > 0 {
		var it heapItem
		it, h = popHeap(h)
		if it.d != cw.dist[it.v] {
			continue // stale entry
		}
		for ei := cw.adjHead[it.v]; ei != -1; ei = cw.adjNext[ei] {
			to := cw.adjTo[ei]
			nd := core.OPlus(it.d, cw.adjD[ei])
			if nd < cw.dist[to] {
				cw.dist[to] = nd
				h = pushHeap(h, heapItem{d: nd, v: to})
			}
		}
	}
	cw.heap = h
}

// pushHeap and popHeap implement a plain binary min-heap on a slice (no
// container/heap interface boxing in the hot loop).
func pushHeap(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].d <= h[i].d {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popHeap(h []heapItem) (heapItem, []heapItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].d < h[small].d {
			small = l
		}
		if r < len(h) && h[r].d < h[small].d {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}
