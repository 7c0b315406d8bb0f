package similarity

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// refEnrichWeights is the pre-heap reference: all-pairs ⊕-shortest paths by
// map-scan Dijkstra (the O(|comp|³) implementation this PR replaced), then
// half the max distance to the opposite side. Kept as the oracle the heap
// implementation must reproduce bit for bit.
func refEnrichWeights(comp []rdf.NodeID, edges []BipartiteEdge, aSide map[rdf.NodeID]bool) map[rdf.NodeID]float64 {
	adj := make(map[rdf.NodeID][]BipartiteEdge, len(comp))
	for _, e := range edges {
		adj[e.A] = append(adj[e.A], e)
		adj[e.B] = append(adj[e.B], BipartiteEdge{A: e.B, B: e.A, D: e.D})
	}
	w := make(map[rdf.NodeID]float64, len(comp))
	for _, src := range comp {
		d := map[rdf.NodeID]float64{src: 0}
		done := map[rdf.NodeID]bool{}
		for {
			best := rdf.NodeID(-1)
			bestD := 2.0
			for n, dn := range d {
				if !done[n] && dn < bestD {
					best, bestD = n, dn
				}
			}
			if best == -1 {
				break
			}
			done[best] = true
			for _, e := range adj[best] {
				nd := core.OPlus(bestD, e.D)
				if cur, ok := d[e.B]; !ok || nd < cur {
					d[e.B] = nd
				}
			}
		}
		maxD := 0.0
		for _, dst := range comp {
			if aSide[dst] == aSide[src] {
				continue
			}
			dd, ok := d[dst]
			if !ok || dd > 1 {
				dd = 1
			}
			if dd > maxD {
				maxD = dd
			}
		}
		w[src] = maxD / 2
	}
	return w
}

// TestEnrichHeapDijkstraOracle: the heap-based component weights reproduce
// the map-scan reference exactly on random multi-component H graphs.
func TestEnrichHeapDijkstraOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		nA, nB := 2+r.Intn(12), 2+r.Intn(12)
		var l1, l2 []string
		for i := 0; i < nA; i++ {
			l1 = append(l1, fmt.Sprintf("a%d", i))
		}
		for i := 0; i < nB; i++ {
			l2 = append(l2, fmt.Sprintf("b%d", i))
		}
		c, a, b := literalNodes(t, l1, l2)
		var edges []BipartiteEdge
		for i := 0; i < nA; i++ {
			for j := 0; j < nB; j++ {
				if r.Float64() < 0.25 {
					edges = append(edges, BipartiteEdge{A: a[i], B: b[j], D: float64(r.Intn(100)) / 100})
				}
			}
		}
		if len(edges) == 0 {
			continue
		}
		h := &WeightedBipartite{A: a, B: b, Edges: edges}
		in := core.NewInterner()
		hp, _, _ := (&core.Engine{}).Hybrid(c, in)
		out := core.NewWeighted(hp)
		changed := Enrich(out, h, core.NewWorkspace())

		// Reference weights over each component, via the same union of
		// incident nodes.
		incident := map[rdf.NodeID]bool{}
		for _, e := range edges {
			incident[e.A] = true
			incident[e.B] = true
		}
		aSide := map[rdf.NodeID]bool{}
		for _, n := range a {
			aSide[n] = true
		}
		comps := map[core.Color][]rdf.NodeID{}
		for n := range incident {
			comps[out.P.Color(n)] = append(comps[out.P.Color(n)], n)
		}
		for _, comp := range comps {
			core.SortNodeIDs(comp)
			compSet := map[rdf.NodeID]bool{}
			for _, n := range comp {
				compSet[n] = true
			}
			var compEdges []BipartiteEdge
			for _, e := range edges {
				if compSet[e.A] {
					compEdges = append(compEdges, e)
				}
			}
			want := refEnrichWeights(comp, compEdges, aSide)
			for _, n := range comp {
				if out.W[n] != want[n] {
					t.Fatalf("seed %d: w(%d) = %v, reference %v (not bit-identical)", seed, n, out.W[n], want[n])
				}
			}
		}
		// The change list is exactly the incident nodes, ascending.
		wantChanged := make([]rdf.NodeID, 0, len(incident))
		for n := range incident {
			wantChanged = append(wantChanged, n)
		}
		core.SortNodeIDs(wantChanged)
		if len(changed) != len(wantChanged) {
			t.Fatalf("seed %d: changed list %v, want %v", seed, changed, wantChanged)
		}
		for i := range changed {
			if changed[i] != wantChanged[i] {
				t.Fatalf("seed %d: changed list %v, want %v", seed, changed, wantChanged)
			}
		}
	}
}

// TestEnrichPathologicalComponent: one star-shaped component with thousands
// of members — the shape (many near-duplicate literals all matched to a
// common node) that made the map-scan extract-min O(|comp|³) and stalled
// the alignment. The heap version finishes immediately and the weights
// follow the closed form: the hub gets half its max spoke distance, spoke j
// gets d_j/2 (its only opposite-side node is the hub).
func TestEnrichPathologicalComponent(t *testing.T) {
	const spokes = 2000
	l2 := make([]string, spokes)
	for j := range l2 {
		l2[j] = fmt.Sprintf("spoke %d", j)
	}
	c, a, b := literalNodes(t, []string{"hub"}, l2)
	edges := make([]BipartiteEdge, spokes)
	maxD := 0.0
	for j := 0; j < spokes; j++ {
		d := float64(j%97) / 200
		edges[j] = BipartiteEdge{A: a[0], B: b[j], D: d}
		if d > maxD {
			maxD = d
		}
	}
	h := &WeightedBipartite{A: a, B: b, Edges: edges}
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	out := core.NewWeighted(hp)
	changed := Enrich(out, h, core.NewWorkspace())
	if len(changed) != spokes+1 {
		t.Fatalf("changed = %d nodes, want %d", len(changed), spokes+1)
	}
	if out.W[a[0]] != maxD/2 {
		t.Errorf("hub weight = %v, want %v", out.W[a[0]], maxD/2)
	}
	hubColor := out.P.Color(a[0])
	for j := 0; j < spokes; j++ {
		if out.P.Color(b[j]) != hubColor {
			t.Fatalf("spoke %d not in the hub's cluster", j)
		}
		if want := edges[j].D / 2; out.W[b[j]] != want {
			t.Fatalf("spoke %d weight = %v, want %v", j, out.W[b[j]], want)
		}
	}
}

func BenchmarkEnrich(b *testing.B) {
	// The pathological shape: one sparse 1500-member component (hub plus
	// spokes plus a chain through the spokes), where per-source cost is
	// the difference between a heap Dijkstra and a map scan.
	const spokes = 1500
	l2 := make([]string, spokes)
	for j := range l2 {
		l2[j] = fmt.Sprintf("spoke %d", j)
	}
	c, a, bb := literalNodes(b, []string{"hub"}, l2)
	var edges []BipartiteEdge
	for j := 0; j < spokes; j++ {
		edges = append(edges, BipartiteEdge{A: a[0], B: bb[j], D: float64(j%89) / 150})
	}
	h := &WeightedBipartite{A: a, B: bb, Edges: edges}
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	xi := core.NewWeighted(hp)
	ws := core.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Enrich(xi, h, ws)
	}
}
