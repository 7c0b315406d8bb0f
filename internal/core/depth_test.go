package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

// depthTestBounds are the bounds the depth tests sweep (0 = unbounded).
var depthTestBounds = []int{1, 2, 3, 0}

// TestDepthBoundedOracle validates the MaxDepth semantics against the
// synchronized-round naive oracle on random graphs: for every bound k the
// engine's partition after k applied rounds captures exactly the relation
// R_k (NaiveKBisimulation), for the worklist and the full-recolor oracle
// alike.
func TestDepthBoundedOracle(t *testing.T) {
	f := func(rngSeed int64) bool {
		r := rand.New(rand.NewSource(rngSeed))
		g := randomGraph(r, "depth", 2+r.Intn(4), r.Intn(5), r.Intn(3), r.Intn(16))
		for _, k := range []int{0, 1, 2, 3, 4} {
			want := NaiveKBisimulation(g, k)
			for _, e := range []refiner{&Engine{MaxDepth: k}, &fullRecolor{MaxDepth: k}} {
				p, _, err := e.Bisim(g, NewInterner())
				if err != nil {
					t.Fatal(err)
				}
				if !FromPartition(p).Equal(want) {
					t.Logf("seed %d k=%d %T: partition differs from R_k", rngSeed, k, e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDepthDeterminismWorkersAndSeeds extends the bit-identity guarantee to
// every depth bound: on a wide frontier, the k-bounded worklist colorings
// must be color-for-color identical (not merely equivalent) to the
// full-recolor oracle's across hash seeds and the deprecated, ignored
// Engine.Workers values callers may still set, with the same applied-round
// count.
func TestDepthDeterminismWorkersAndSeeds(t *testing.T) {
	g := wideDeepTestGraph(512, 40)
	for _, k := range depthTestBounds {
		want, wantIters, _ := (&fullRecolor{MaxDepth: k}).Deblank(g, NewInterner())
		for _, seed := range internTestSeeds {
			for _, workers := range []int{1, 2, 4, 8} {
				e := &Engine{Workers: workers, MaxDepth: k}
				p, iters, err := e.Deblank(g, NewInternerSeeded(seed))
				if err != nil {
					t.Fatal(err)
				}
				if iters != wantIters {
					t.Errorf("k=%d seed %#x workers %d: %d rounds, want %d",
						k, seed, workers, iters, wantIters)
				}
				if !samePartition(want, p) {
					t.Errorf("k=%d seed %#x workers %d: coloring diverged", k, seed, workers)
				}
			}
		}
		if k > 0 && wantIters != k {
			t.Errorf("k=%d: fixpoint stopped after %d rounds, want exactly k", k, wantIters)
		}
	}
}

// TestDepthWeightedDeterminism is the weighted counterpart: k-bounded
// Propagate must yield colors and weights bit-identical to the full-recolor
// oracle's across hash seeds.
func TestDepthWeightedDeterminism(t *testing.T) {
	c := rdf.Union(wideDeepTestGraph(256, 30), wideDeepTestGraph(256, 30))
	for _, k := range depthTestBounds {
		want := NewWeighted(TrivialPartition(c.Graph, NewInterner()))
		(&fullRecolor{MaxDepth: k}).Propagate(c, want, 0)
		for _, seed := range internTestSeeds {
			out := NewWeighted(TrivialPartition(c.Graph, NewInternerSeeded(seed)))
			_, _, err := (&Engine{MaxDepth: k}).Propagate(c, out, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !samePartition(want.P, out.P) {
				t.Errorf("k=%d seed %#x: weighted coloring diverged", k, seed)
			}
			for n := range out.W {
				if out.W[n] != want.W[n] {
					t.Fatalf("k=%d seed %#x: weight of node %d = %v, want %v",
						k, seed, n, out.W[n], want.W[n])
				}
			}
		}
	}
}

// TestDepthLargeBoundEqualsUnbounded checks the stabilise-before-k clause:
// a bound beyond the fixpoint's natural depth changes nothing — identical
// coloring and identical round count as the exact unbounded run, for both
// the unweighted and the weighted fixpoints.
func TestDepthLargeBoundEqualsUnbounded(t *testing.T) {
	g := wideDeepTestGraph(200, 25)
	exact, exactIters, err := (&Engine{}).Deblank(g, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	bounded, boundedIters, err := (&Engine{MaxDepth: 10_000}).Deblank(g, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	if boundedIters != exactIters || !samePartition(exact, bounded) {
		t.Errorf("MaxDepth=10000: %d rounds vs exact %d, identical=%v",
			boundedIters, exactIters, samePartition(exact, bounded))
	}

	c := rdf.Union(wideDeepTestGraph(150, 20), wideDeepTestGraph(150, 20))
	wExact := NewWeighted(TrivialPartition(c.Graph, NewInterner()))
	wIters, _, err := (&Engine{}).Propagate(c, wExact, 0)
	if err != nil {
		t.Fatal(err)
	}
	wBounded := NewWeighted(TrivialPartition(c.Graph, NewInterner()))
	wbIters, _, err := (&Engine{MaxDepth: 10_000}).Propagate(c, wBounded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wbIters != wIters || !samePartition(wExact.P, wBounded.P) {
		t.Errorf("weighted MaxDepth=10000: %d rounds vs exact %d", wbIters, wIters)
	}
}

// TestDepthMonotone checks that deepening the bound only refines: for
// k' > k the k'-bounded partition has at least as many classes, and the
// unbounded partition is the finest of all.
func TestDepthMonotone(t *testing.T) {
	g := wideDeepTestGraph(300, 30)
	prev := -1
	for _, k := range []int{1, 2, 3, 5, 10, 0} {
		p, _, err := (&Engine{MaxDepth: k}).Deblank(g, NewInterner())
		if err != nil {
			t.Fatal(err)
		}
		if n := p.NumClasses(); n < prev {
			t.Errorf("k=%d: %d classes, fewer than the shallower bound's %d", k, n, prev)
		} else {
			prev = n
		}
	}
}

// TestDepthPaperExamplesExact pins the k=∞ clause on the paper's example
// graphs: a bound far beyond their fixpoint depth leaves Bisim, Deblank
// and Hybrid byte-identical to the exact unbounded run.
func TestDepthPaperExamplesExact(t *testing.T) {
	graphs := []*rdf.Graph{figure1V1(t), figure1V2(t), figure3G1(t), figure3G2(t)}
	for i, g := range graphs {
		for _, fn := range []struct {
			name string
			run  func(e *Engine) (*Partition, int, error)
		}{
			{"bisim", func(e *Engine) (*Partition, int, error) { return e.Bisim(g, NewInterner()) }},
			{"deblank", func(e *Engine) (*Partition, int, error) { return e.Deblank(g, NewInterner()) }},
		} {
			exact, exactIters, err := fn.run(&Engine{})
			if err != nil {
				t.Fatal(err)
			}
			bounded, boundedIters, err := fn.run(&Engine{MaxDepth: 1000})
			if err != nil {
				t.Fatal(err)
			}
			if boundedIters != exactIters || !samePartition(exact, bounded) {
				t.Errorf("graph %d %s: large bound diverged from exact", i, fn.name)
			}
		}
	}
	c := rdf.Union(figure1V1(t), figure1V2(t))
	exact, _, err := (&Engine{}).Hybrid(c, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	bounded, _, err := (&Engine{MaxDepth: 1000}).Hybrid(c, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	if !samePartition(exact, bounded) {
		t.Error("hybrid: large bound diverged from exact on the Figure 1 pair")
	}
}
