package core

import (
	"math/rand"
	"testing"

	"rdfalign/internal/rdf"
)

// newTestDiskInterner builds a seeded interner backed by OutOfCore storage
// in a per-test temp dir.
func newTestDiskInterner(t *testing.T, seed uint64) (*Interner, Storage) {
	t.Helper()
	st := OutOfCore(t.TempDir())
	return newInterner(seed, st), st
}

// TestDeblankOutOfCoreIdentity is the core property test of the out-of-core
// engine: deblank colorings computed with storage-backed arrays and
// external-merge signature grouping must be bit-identical — color value for
// color value, not merely grouping-equivalent — to the in-memory engine,
// across hash seeds and spill-run sizes (tiny runs force
// genuine multi-run k-way merges). Each trial also runs the weighted
// fixpoint, Propagate((λTrivial, 0)) on a combined pair, whose rounds take
// the same external-merge path: colors, weights and round counts must
// match the in-memory run exactly.
func TestDeblankOutOfCoreIdentity(t *testing.T) {
	defer func(th, rb int) { extMergeThreshold = th; extSpillRunBytes = rb }(extMergeThreshold, extSpillRunBytes)
	variants := []struct {
		name      string
		threshold int
		runBytes  int
	}{
		{"merge-multirun", 1, 128},       // every round external, many tiny runs
		{"merge-onerun", 1, 8 << 20},     // every round external, in-memory run
		{"alloc-only", 1 << 30, 8 << 20}, // storage-backed arrays, heap grouping
	}
	r := rand.New(rand.NewSource(77))
	rw := rand.New(rand.NewSource(78)) // second graphs of the weighted pairs
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, "ooc", 3+r.Intn(5), 1+r.Intn(8), 1+r.Intn(3), 5+r.Intn(40))
		want, wantIters, err := (&Engine{}).Deblank(g, NewInterner())
		if err != nil {
			t.Fatalf("trial %d: in-memory deblank: %v", trial, err)
		}
		c := rdf.Union(g, randomGraph(rw, "ooc2", 3+rw.Intn(5), 1+rw.Intn(8), 1+rw.Intn(3), 5+rw.Intn(40)))
		wantXi := NewWeighted(TrivialPartition(c.Graph, NewInterner()))
		wantWIters, _, err := (&Engine{}).Propagate(c, wantXi, 0)
		if err != nil {
			t.Fatalf("trial %d: in-memory propagate: %v", trial, err)
		}
		for _, v := range variants {
			extMergeThreshold = v.threshold
			extSpillRunBytes = v.runBytes
			for _, seed := range []uint64{sigSeedDefault, 0xdecafbad} {
				in, st := newTestDiskInterner(t, seed)
				got, iters, err := (&Engine{}).Deblank(g, in)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, v.name, err)
				}
				if iters != wantIters {
					t.Fatalf("trial %d %s seed=%#x: %d iterations, in-memory took %d",
						trial, v.name, seed, iters, wantIters)
				}
				wc, gc := want.Colors(), got.Colors()
				for n := range wc {
					if wc[n] != gc[n] {
						t.Fatalf("trial %d %s seed=%#x: node %d colored %d, in-memory %d",
							trial, v.name, seed, n, gc[n], wc[n])
					}
				}
				if err := st.Close(); err != nil {
					t.Fatalf("storage close: %v", err)
				}

				in, st = newTestDiskInterner(t, seed)
				xi := NewWeighted(TrivialPartition(c.Graph, in))
				wIters, _, err := (&Engine{}).Propagate(c, xi, 0)
				if err != nil {
					t.Fatalf("trial %d %s: propagate: %v", trial, v.name, err)
				}
				if wIters != wantWIters {
					t.Fatalf("trial %d %s seed=%#x: propagate took %d iterations, in-memory %d",
						trial, v.name, seed, wIters, wantWIters)
				}
				wc, gc = wantXi.P.Colors(), xi.P.Colors()
				for n := range wc {
					if wc[n] != gc[n] || wantXi.W[n] != xi.W[n] {
						t.Fatalf("trial %d %s seed=%#x: propagate gave node %d (%d, %v), in-memory (%d, %v)",
							trial, v.name, seed, n, gc[n], xi.W[n], wc[n], wantXi.W[n])
					}
				}
				if err := st.Close(); err != nil {
					t.Fatalf("storage close: %v", err)
				}
			}
		}
	}
}

// TestRefineOutOfCoreTrivialSeed covers the TrivialPartition entry point
// (per-blank fresh colors interleave with composites) through the
// external-merge path.
func TestRefineOutOfCoreTrivialSeed(t *testing.T) {
	defer func(th, rb int) { extMergeThreshold = th; extSpillRunBytes = rb }(extMergeThreshold, extSpillRunBytes)
	extMergeThreshold = 1
	extSpillRunBytes = 128
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(r, "oocTriv", 3+r.Intn(4), 1+r.Intn(6), 1+r.Intn(3), 5+r.Intn(30))
		var all []rdf.NodeID
		g.Nodes(func(n rdf.NodeID) { all = append(all, n) })
		want, _, err := (&Engine{}).Refine(g, TrivialPartition(g, NewInterner()), all)
		if err != nil {
			t.Fatal(err)
		}
		in, st := newTestDiskInterner(t, sigSeedDefault)
		got, _, err := (&Engine{}).Refine(g, TrivialPartition(g, in), all)
		if err != nil {
			t.Fatal(err)
		}
		wc, gc := want.Colors(), got.Colors()
		for n := range wc {
			if wc[n] != gc[n] {
				t.Fatalf("trial %d: node %d colored %d, in-memory %d", trial, n, gc[n], wc[n])
			}
		}
		st.Close()
	}
}

// TestDiskStorageAllocator pins the allocator contract: zeroed, correctly
// sized, 4-aligned slices that survive later allocations, across chunk
// boundaries, with a working heap fallback path.
func TestDiskStorageAllocator(t *testing.T) {
	st := OutOfCore(t.TempDir())
	defer st.Close()
	colors := st.AllocColors(1000)
	if len(colors) != 1000 {
		t.Fatalf("AllocColors(1000) has length %d", len(colors))
	}
	for i, c := range colors {
		if c != 0 {
			t.Fatalf("color %d not zeroed: %d", i, c)
		}
	}
	for i := range colors {
		colors[i] = Color(i)
	}
	// Interleave other allocations, then confirm the first array intact.
	ed := st.AllocEdges(100)
	ix := st.AllocIndex(100)
	nd := st.AllocNodes(100)
	if len(ed) != 100 || len(ix) != 100 || len(nd) != 100 {
		t.Fatal("typed allocation lengths wrong")
	}
	pairs := allocChunk[ColorPair](st, 7)
	for i := range pairs {
		pairs[i] = ColorPair{P: Color(i), O: Color(-i)}
	}
	for i, c := range colors {
		if c != Color(i) {
			t.Fatalf("color %d clobbered by later allocations: %d", i, c)
		}
	}
	if st.AllocColors(0) != nil {
		t.Fatal("AllocColors(0) should be nil")
	}
	if _, ok := st.SpillDir(); !ok {
		t.Fatal("disk storage must enable spilling")
	}
	if _, ok := InMemory().SpillDir(); ok {
		t.Fatal("in-memory storage must not enable spilling")
	}
}

// TestPairStoreChunking checks that stored views survive chunk rollover and
// that oversized lists get dedicated chunks.
func TestPairStoreChunking(t *testing.T) {
	var ps chunkStore[ColorPair] // heap-backed
	var stored []storeRef
	var want [][]ColorPair
	mk := func(n, base int) []ColorPair {
		l := make([]ColorPair, n)
		for i := range l {
			l[i] = ColorPair{P: Color(base + i), O: Color(base - i)}
		}
		return l
	}
	for i := 0; i < 100; i++ {
		l := mk(1+i*700, i) // crosses the chunk size repeatedly, incl. oversized
		want = append(want, l)
		stored = append(stored, ps.add(nil, l))
	}
	if got := ps.add(nil, nil); got != (storeRef{}) || ps.view(got) != nil {
		t.Fatal("storing an empty list must return the empty reference")
	}
	for i := range want {
		if !pairsEqual(ps.view(stored[i]), want[i]) {
			t.Fatalf("stored list %d corrupted after later stores", i)
		}
	}
}
