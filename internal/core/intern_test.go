package core

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

// internTestSeeds are the hash seeds the determinism tests sweep: the
// default, a degenerate zero seed, and two arbitrary values. Colors are
// assigned in interning order, so every seed must produce the identical
// coloring — only bucket placement may differ.
var internTestSeeds = []uint64{sigSeedDefault, 0, 1, 0xdecafbadc0ffee}

// wideDeepTestGraph is a shrunken copy of the benchmark workload the
// worklist engine exists for: a wide region that stabilises after round one
// next to a deep chain that keeps the fixpoint going.
func wideDeepTestGraph(nWide, nDeep int) *rdf.Graph {
	b := rdf.NewBuilder("intern-wide-deep")
	p := b.URI("p")
	q := b.URI("q")
	var lits []rdf.NodeID
	for i := 0; i < 50; i++ {
		lits = append(lits, b.Literal("leaf"+strconv.Itoa(i)))
	}
	for i := 0; i < nWide; i++ {
		n := b.FreshBlank()
		b.Triple(n, p, lits[i%len(lits)])
		b.Triple(n, q, lits[(i*7)%len(lits)])
	}
	prev := b.URI("end")
	for i := 0; i < nDeep; i++ {
		cur := b.FreshBlank()
		b.Triple(cur, p, prev)
		prev = cur
	}
	return b.MustGraph()
}

// TestInternDeterminismWorkersAndSeeds is the interner-determinism property
// test: on a wide frontier the colorings are color-for-color identical (not
// merely equivalent) for every hash seed and for every value of the
// deprecated, ignored Engine.Workers — bucket placement must never leak
// into color assignment.
func TestInternDeterminismWorkersAndSeeds(t *testing.T) {
	g := wideDeepTestGraph(512, 60)
	var want *Partition
	var wantIters int
	for _, seed := range internTestSeeds {
		for _, workers := range []int{1, 2, 4, 8} {
			e := &Engine{Workers: workers}
			p, iters, err := e.Deblank(g, NewInternerSeeded(seed))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want, wantIters = p, iters
				continue
			}
			if iters != wantIters {
				t.Errorf("seed %#x workers %d: %d iterations, want %d", seed, workers, iters, wantIters)
			}
			if !samePartition(want, p) {
				t.Errorf("seed %#x workers %d: coloring diverged from sequential default-seed run", seed, workers)
			}
		}
	}
}

// TestInternDeterminismWeighted is the weighted counterpart: Propagate over
// a combined wide+deep pair must yield bit-identical colors AND weights
// across hash seeds.
func TestInternDeterminismWeighted(t *testing.T) {
	c := rdf.Union(wideDeepTestGraph(256, 40), wideDeepTestGraph(256, 40))
	var want *Weighted
	for _, seed := range internTestSeeds {
		in := NewInternerSeeded(seed)
		out := NewWeighted(TrivialPartition(c.Graph, in))
		_, _, err := (&Engine{}).Propagate(c, out, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = out
			continue
		}
		if !samePartition(want.P, out.P) {
			t.Errorf("seed %#x: weighted coloring diverged", seed)
		}
		for n := range out.W {
			if out.W[n] != want.W[n] {
				t.Fatalf("seed %#x: weight of node %d = %v, want %v", seed, n, out.W[n], want.W[n])
			}
		}
	}
}

// TestInternDeterminismRandomGraphs extends the seed sweep to random graphs.
func TestInternDeterminismRandomGraphs(t *testing.T) {
	f := func(rngSeed int64) bool {
		r := rand.New(rand.NewSource(rngSeed))
		g := randomGraph(r, "det", 3+r.Intn(5), r.Intn(6), 1+r.Intn(3), 5+r.Intn(25))
		all := allNodes(g)
		var want *Partition
		for _, seed := range internTestSeeds {
			p, _, err := (&Engine{}).Refine(g, LabelPartition(g, NewInternerSeeded(seed)), all)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = p
			} else if !samePartition(want, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// internUnder interns the canonical signature (prev, pairs) as if it
// hashed to h, through the table probe and mint that resolve and
// compositeCanonical use.
func internUnder(in *Interner, h uint64, prev Color, pairs []ColorPair) Color {
	if c, ok := in.lookupPairs(h, prev, pairs); ok {
		return c
	}
	return in.mint(h, prev, in.pairs.add(in.st, pairs))
}

// TestInternForcedCollision drives the open-addressed bucket fallback
// directly: distinct signatures interned under one artificial hash value
// must resolve structurally — distinct signatures get distinct colors,
// repeated signatures return the interned color, and probing walks past
// hash-equal non-matching slots.
func TestInternForcedCollision(t *testing.T) {
	in := NewInterner()
	a, b := in.Fresh(), in.Fresh()
	const h = uint64(0x42) // every signature below shares this hash
	sigs := [][]ColorPair{
		{{a, a}},
		{{a, b}},
		{{b, a}},
		{{a, a}, {a, b}},
		{{a, a}, {b, b}},
		{extMarker, {a, ^a}},
		{{^a, a}, extMarker},
	}
	colors := make([]Color, len(sigs))
	for i, s := range sigs {
		colors[i] = internUnder(in, h, a, s)
	}
	for i := range sigs {
		for j := range sigs {
			if (colors[i] == colors[j]) != (i == j) {
				t.Fatalf("collision resolution broke: sig %d and %d map to colors %d and %d", i, j, colors[i], colors[j])
			}
		}
	}
	// Re-interning under the same hash must hit, not allocate.
	size := in.Size()
	for i, s := range sigs {
		if got := internUnder(in, h, a, s); got != colors[i] {
			t.Fatalf("re-intern of sig %d: got color %d, want %d", i, got, colors[i])
		}
	}
	// A different prev under the same hash is a different signature.
	if got := internUnder(in, h, b, []ColorPair{{a, a}}); got == colors[0] {
		t.Error("distinct prev must not resolve to an existing color")
	}
	if in.Size() != size+1 {
		t.Errorf("interner grew by %d colors, want 1", in.Size()-size)
	}
}

// TestInternHashVsStringDifferential replays random construction sequences
// through the hash interner and the retained string-keyed reference; both
// must assign identical colors at every step (they share the allocation
// order, so any divergence is an interning bug, not a renaming).
func TestInternHashVsStringDifferential(t *testing.T) {
	f := func(rngSeed int64) bool {
		r := rand.New(rand.NewSource(rngSeed))
		h := NewInterner() // pre-allocates the blank color 0
		s := newStringInterner()
		s.Fresh() // mirror the blank
		colors := []Color{h.Blank()}
		for i := 0; i < 4+r.Intn(8); i++ {
			c := h.Fresh()
			if sc := s.Fresh(); sc != c {
				return false
			}
			colors = append(colors, c)
		}
		// One signature in three is extended: in-edge and occurrence pairs
		// tagged with ^ and the marker, as recolorOpts gathers them.
		randPairs := func(extended bool) []ColorPair {
			pairs := make([]ColorPair, r.Intn(5))
			for i := range pairs {
				pr := ColorPair{colors[r.Intn(len(colors))], colors[r.Intn(len(colors))]}
				if extended {
					switch r.Intn(3) {
					case 1:
						pr.O = ^pr.O
					case 2:
						pr.P = ^pr.P
					}
				}
				pairs[i] = pr
			}
			if extended {
				pairs = append(pairs, extMarker)
			}
			return pairs
		}
		for step := 0; step < 120; step++ {
			prev := colors[r.Intn(len(colors))]
			pairs := randPairs(r.Intn(3) == 0)
			hc := h.Composite(prev, append([]ColorPair(nil), pairs...))
			sc := s.Composite(prev, append([]ColorPair(nil), pairs...))
			if hc != sc {
				t.Logf("step %d: hash interner %d, string interner %d", step, hc, sc)
				return false
			}
			colors = append(colors, hc)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// internBenchWorkload precomputes a deterministic signature stream with a
// realistic hit/miss mix: ~nUnique distinct signatures requested n times in
// a scrambled order.
func internBenchWorkload(n, nUnique int) (prevs []Color, pairs [][]ColorPair, nBase int) {
	r := rand.New(rand.NewSource(42))
	nBase = 64
	prevs = make([]Color, n)
	pairs = make([][]ColorPair, n)
	for i := 0; i < n; i++ {
		k := r.Intn(nUnique)
		kr := rand.New(rand.NewSource(int64(k)))
		prevs[i] = Color(kr.Intn(nBase))
		ps := make([]ColorPair, 1+kr.Intn(4))
		for j := range ps {
			ps[j] = ColorPair{Color(kr.Intn(nBase)), Color(kr.Intn(nBase))}
		}
		pairs[i] = ps
	}
	return prevs, pairs, nBase
}

// BenchmarkInternComposite measures composite interning throughput on a
// mixed new/hit signature stream: the hash interner against the retained
// string-keyed reference path.
func BenchmarkInternComposite(b *testing.B) {
	const n, nUnique = 100_000, 20_000
	prevs, pairs, nBase := internBenchWorkload(n, nUnique)
	scratch := make([]ColorPair, 0, 8)
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := NewInterner()
			for j := 0; j < nBase; j++ {
				in.Fresh()
			}
			for j := 0; j < n; j++ {
				in.Composite(prevs[j], append(scratch[:0], pairs[j]...))
			}
		}
	})
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := newStringInterner()
			for j := 0; j < nBase; j++ {
				in.Fresh()
			}
			for j := 0; j < n; j++ {
				in.Composite(prevs[j], append(scratch[:0], pairs[j]...))
			}
		}
	})
}

// TestInternerBaseKindsAndOracle pins the per-kind base-color maps: a URI
// and a literal with the same lexical value are different labels, every
// blank label (whatever its serialisation name) is the shared blank color,
// and a mixed stream of Base, Fresh and Composite calls assigns exactly the
// colors of the historical single-map implementation (stringInterner).
func TestInternerBaseKindsAndOracle(t *testing.T) {
	in := NewInterner()
	if u, l := in.Base(rdf.URILabel("x")), in.Base(rdf.LiteralLabel("x")); u == l {
		t.Fatalf("URI and literal \"x\" share base color %d", u)
	}
	for _, l := range []rdf.Label{rdf.BlankLabel(), {Kind: rdf.Blank, Value: "b1"}, {Kind: rdf.Blank, Value: "x"}} {
		if c := in.Base(l); c != in.Blank() {
			t.Fatalf("blank label %+v: color %d, want Blank() = %d", l, c, in.Blank())
		}
	}

	f := func(rngSeed int64) bool {
		r := rand.New(rand.NewSource(rngSeed))
		h := NewInterner()
		s := newStringInterner()
		s.Fresh() // mirror the blank
		kinds := []rdf.Kind{rdf.URI, rdf.Literal, rdf.Blank}
		colors := []Color{h.Blank()}
		for step := 0; step < 200; step++ {
			var hc, sc Color
			switch r.Intn(4) {
			case 0:
				hc, sc = h.Fresh(), s.Fresh()
			case 1:
				prev := colors[r.Intn(len(colors))]
				pair := ColorPair{colors[r.Intn(len(colors))], colors[r.Intn(len(colors))]}
				hc, sc = h.Composite(prev, []ColorPair{pair}), s.Composite(prev, []ColorPair{pair})
			default:
				l := rdf.Label{Kind: kinds[r.Intn(len(kinds))], Value: strconv.Itoa(r.Intn(12))}
				hc, sc = h.Base(l), s.Base(l)
			}
			if hc != sc {
				t.Logf("step %d: interner %d, oracle %d", step, hc, sc)
				return false
			}
			colors = append(colors, hc)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
