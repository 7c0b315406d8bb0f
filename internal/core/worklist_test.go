package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

// allNodes returns the ascending recolor set covering g.
func allNodes(g *rdf.Graph) []rdf.NodeID {
	all := make([]rdf.NodeID, g.NumNodes())
	for i := range all {
		all[i] = rdf.NodeID(i)
	}
	return all
}

// samePartition reports color-for-color equality (stronger than Equivalent).
func samePartition(a, b *Partition) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Color(rdf.NodeID(i)) != b.Color(rdf.NodeID(i)) {
			return false
		}
	}
	return true
}

// TestWorklistEnginesIdentical asserts the worklist agrees with the
// full-recolor oracle on random graphs: identical coloring in the same
// number of iterations, and their common partition equals the naive
// greatest-fixpoint bisimulation.
func TestWorklistEnginesIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "wl", 3+r.Intn(5), r.Intn(6), 1+r.Intn(3), 5+r.Intn(25))
		all := allNodes(g)
		run := func(e refiner) (*Partition, int) {
			in := NewInterner()
			p, it, err := e.Refine(g, LabelPartition(g, in), all)
			if err != nil {
				t.Fatal(err)
			}
			return p, it
		}
		wl, itWL := run(&Engine{})
		full, itFull := run(&fullRecolor{})
		if itWL != itFull {
			t.Logf("iteration counts diverge: wl=%d full=%d", itWL, itFull)
			return false
		}
		if !samePartition(wl, full) {
			t.Log("colorings diverge")
			return false
		}
		return FromPartition(wl).Equal(NaiveMaximalBisimulation(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestWorklistDeblankIdentical is the deblank/hybrid counterpart: the
// restricted recolor sets (blanks, unaligned non-literals) take the same
// frontier machinery through the multi-phase pipeline.
func TestWorklistDeblankIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		wl, itWL, err := (&Engine{}).Hybrid(c, NewInterner())
		if err != nil {
			t.Fatal(err)
		}
		full, itFull, _ := (&fullRecolor{}).Hybrid(c, NewInterner())
		return itWL == itFull && samePartition(wl, full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestWorklistParallelLargeFrontier checks the worklist on a 60k-node
// frontier against the full-recolor oracle and against an engine that
// still sets the deprecated, ignored Workers field.
func TestWorklistParallelLargeFrontier(t *testing.T) {
	g := benchWideGraph()
	all := allNodes(g)
	seq, itSeq, err := (&Engine{}).Refine(g, LabelPartition(g, NewInterner()), all)
	if err != nil {
		t.Fatal(err)
	}
	par, itPar, err := (&Engine{Workers: 4}).Refine(g, LabelPartition(g, NewInterner()), all)
	if err != nil {
		t.Fatal(err)
	}
	full, itFull, _ := (&fullRecolor{}).Refine(g, LabelPartition(g, NewInterner()), all)
	if itSeq != itPar || itSeq != itFull {
		t.Errorf("iteration counts: seq=%d par=%d full=%d", itSeq, itPar, itFull)
	}
	if !samePartition(seq, par) || !samePartition(seq, full) {
		t.Error("worklist diverged on a large frontier")
	}
}

// TestWorklistWeightedIdentical: the weighted worklist agrees bit-for-bit
// (colors and weights) with the full-recolor weighted oracle on random
// propagation workloads, per the exact dirty criterion (any weight motion
// re-dirties dependents, ε only governs termination).
func TestWorklistWeightedIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		run := func(e refiner) (*Weighted, int) {
			in := NewInterner()
			xi := NewWeighted(TrivialPartition(c.Graph, in))
			it, _, err := e.Propagate(c, xi, 0)
			if err != nil {
				t.Fatal(err)
			}
			return xi, it
		}
		wl, itWL := run(&Engine{})
		full, itFull := run(&fullRecolor{})
		if itWL != itFull {
			t.Logf("weighted iteration counts diverge: wl=%d full=%d", itWL, itFull)
			return false
		}
		if !samePartition(wl.P, full.P) {
			t.Log("weighted colorings diverge")
			return false
		}
		for i := range wl.W {
			if wl.W[i] != full.W[i] {
				t.Logf("weight %d diverges: %v vs %v", i, wl.W[i], full.W[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWorklistQuiescentCycle pins the grouping-equivalence stabilisation on
// the case an empty-frontier criterion can never detect: a symmetric cycle
// of blank nodes re-derives a fresh color for its class every round, so the
// frontier never empties; the engine must recognise the pure renaming and
// stop exactly where the oracle's equivalentColors scan does.
func TestWorklistQuiescentCycle(t *testing.T) {
	b := rdf.NewBuilder("cycle")
	p := b.URI("p")
	x := b.Blank("x")
	y := b.Blank("y")
	z := b.Blank("z")
	b.Triple(x, p, y)
	b.Triple(y, p, z)
	b.Triple(z, p, x)
	root := b.URI("root")
	b.Triple(root, p, x)
	g := mustGraph(t, b)
	wl, itWL, err := (&Engine{}).Deblank(g, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	full, itFull, _ := (&fullRecolor{}).Deblank(g, NewInterner())
	if itWL != itFull {
		t.Errorf("iteration counts: worklist=%d full=%d", itWL, itFull)
	}
	if !samePartition(wl, full) {
		t.Error("worklist diverged from the full-recolor oracle on the blank cycle")
	}
	// All three cycle blanks must share one class (mutually bisimilar).
	if wl.Color(x) != wl.Color(y) || wl.Color(y) != wl.Color(z) {
		t.Error("cycle blanks must stay in one class")
	}
}

// TestWorklistCancellationMidRun aborts a deep refinement from a progress
// hook a few rounds in: the engine must return the context's error promptly
// instead of running the fixpoint to completion.
func TestWorklistCancellationMidRun(t *testing.T) {
	// A long blank chain refines one node per round — plenty of rounds to
	// cancel within.
	g := blankChain(t, 200)

	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	eng := &Engine{Hooks: Hooks{Ctx: ctx, OnRound: func(ev ProgressEvent) {
		rounds++
		if rounds == 3 {
			cancel()
		}
	}}}
	_, _, err := eng.Deblank(g, NewInterner())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rounds > 4 {
		t.Errorf("engine kept running %d rounds after cancellation", rounds)
	}

	// The weighted worklist honours cancellation the same way.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	eng2 := &Engine{Hooks: Hooks{Ctx: ctx2}}
	c := rdf.Union(g, g)
	_, _, err = eng2.Propagate(c, NewWeighted(TrivialPartition(c.Graph, NewInterner())), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("weighted err = %v, want context.Canceled", err)
	}
}

// TestWorklistProgressDirty: worklist rounds report the frontier size, which
// must shrink on a chain workload (only a moving frontier stays dirty) —
// for the extended recolorings too, whose rounds report their widened
// frontier rather than the whole recolor set.
func TestWorklistProgressDirty(t *testing.T) {
	b := rdf.NewBuilder("chain")
	p := b.URI("p")
	end := b.URI("end")
	prev := end
	for i := 0; i < 30; i++ {
		cur := b.FreshBlank()
		b.Triple(cur, p, prev)
		prev = cur
	}
	g := mustGraph(t, b)
	for _, opt := range []RefineOptions{{}, {Adaptive: true}, {Filter: PredicateKeyFilter("p")}} {
		var dirties []int
		eng := &Engine{Opt: opt, Hooks: Hooks{OnRound: func(ev ProgressEvent) {
			if ev.Stage == StageRefine {
				dirties = append(dirties, ev.Dirty)
			}
		}}}
		if _, _, err := eng.Deblank(g, NewInterner()); err != nil {
			t.Fatal(err)
		}
		if len(dirties) == 0 {
			t.Fatalf("%+v: no refine rounds reported", opt)
		}
		if dirties[0] != g.NumBlanks() {
			t.Errorf("%+v: first round dirty = %d, want all %d blanks", opt, dirties[0], g.NumBlanks())
		}
		last := dirties[len(dirties)-1]
		if last >= dirties[0] {
			t.Errorf("%+v: frontier did not shrink: first %d, last %d", opt, dirties[0], last)
		}
	}
}

// extendedTestOptions are the extended recolorings the worklist is checked
// against the full-recolor oracle with: each direction, the adaptive
// fallback, their combinations and a predicate-key filter. randomGraph's
// predicates are u0, u1 and u2 (or p0), so the filter keeps a strict
// subset of the edges.
var extendedTestOptions = []RefineOptions{
	{Direction: DirIn},
	{Direction: DirBoth},
	{Adaptive: true},
	{Direction: DirIn, Adaptive: true},
	{Direction: DirBoth, Adaptive: true},
	{Filter: PredicateKeyFilter("u0", "u2")},
	{Direction: DirBoth, Adaptive: true, Filter: PredicateKeyFilter("u1")},
}

// TestWorklistExtendedIdentical: with extended options the worklist's
// widened frontier recolors exactly what a full round would change, so it
// matches the full-recolor oracle color for color and in round count —
// for every option set, depth bound and interner seed, on Bisim and on the
// two-phase Hybrid pipeline.
func TestWorklistExtendedIdentical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "ext", 2+r.Intn(5), r.Intn(6), 1+r.Intn(3), 3+r.Intn(25))
		c := randomCombined(r)
		for _, opt := range extendedTestOptions {
			for _, k := range []int{0, 1, 2, 3} {
				oracle := &fullRecolor{Opt: opt, MaxDepth: k}
				wantB, itB, _ := oracle.Bisim(g, NewInterner())
				wantH, itH, _ := oracle.Hybrid(c, NewInterner())
				for _, is := range internTestSeeds {
					e := &Engine{Opt: opt, MaxDepth: k}
					gotB, gotItB, err := e.Bisim(g, NewInternerSeeded(is))
					if err != nil {
						t.Fatal(err)
					}
					gotH, gotItH, err := e.Hybrid(c, NewInternerSeeded(is))
					if err != nil {
						t.Fatal(err)
					}
					if gotItB != itB || !samePartition(gotB, wantB) {
						t.Logf("seed %d %+v k=%d interner %#x: Bisim diverges (%d vs %d rounds)", seed, opt, k, is, gotItB, itB)
						return false
					}
					if gotItH != itH || !samePartition(gotH, wantH) {
						t.Logf("seed %d %+v k=%d interner %#x: Hybrid diverges (%d vs %d rounds)", seed, opt, k, is, gotItH, itH)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// refineEngines is the engine matrix TestDeblankFrom runs against: the
// default outbound recoloring and the extended recolorings, which share
// the worklist loop but widen its frontier.
var refineEngines = []struct {
	name string
	eng  *Engine
}{
	{"worklist", &Engine{}},
	{"in", &Engine{Opt: RefineOptions{Direction: DirIn}}},
	{"both+adaptive", &Engine{Opt: RefineOptions{Direction: DirBoth, Adaptive: true}}},
	{"keys", &Engine{Opt: RefineOptions{Filter: PredicateKeyFilter("u0", "u2")}}},
}

// TestDeblankFrom: DeblankFrom over LabelPartition is Deblank, color for
// color, on every engine configuration.
func TestDeblankFrom(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "df", 3+r.Intn(5), 1+r.Intn(6), 1+r.Intn(3), 5+r.Intn(25))
		for _, e := range refineEngines {
			in := NewInterner()
			want, wantIters, err := e.eng.Deblank(g, in)
			if err != nil {
				t.Fatal(err)
			}
			in2 := NewInterner()
			got, gotIters, err := e.eng.DeblankFrom(g, LabelPartition(g, in2))
			if err != nil {
				t.Fatal(err)
			}
			if wantIters != gotIters {
				t.Fatalf("seed %d %s: iters %d, want %d", seed, e.name, gotIters, wantIters)
			}
			for n := 0; n < g.NumNodes(); n++ {
				if want.Color(rdf.NodeID(n)) != got.Color(rdf.NodeID(n)) {
					t.Fatalf("seed %d %s: node %d: %d vs %d", seed, e.name, n, got.Color(rdf.NodeID(n)), want.Color(rdf.NodeID(n)))
				}
			}
		}
	}
}

// blankChain is a chain of n blank nodes ending in a URI: deblank refines
// one more link per round, so its fixpoint needs about n rounds.
func blankChain(t *testing.T, n int) *rdf.Graph {
	b := rdf.NewBuilder("chain")
	p := b.URI("p")
	prev := b.URI("end")
	for i := 0; i < n; i++ {
		cur := b.FreshBlank()
		b.Triple(cur, p, prev)
		prev = cur
	}
	return mustGraph(t, b)
}

// requireNoFixpoint runs f with the refinement cap lowered to three rounds
// and requires the ErrNoFixpoint that names stage and the capped round.
func requireNoFixpoint(t *testing.T, stage string, f func() error) {
	t.Helper()
	defer func(saved int) { maxIterations = saved }(maxIterations)
	maxIterations = 3
	err := f()
	var nf *NoFixpointError
	if !errors.Is(err, ErrNoFixpoint) || !errors.As(err, &nf) {
		t.Fatalf("err = %v, want ErrNoFixpoint", err)
	}
	if nf.Stage != stage || nf.Round != maxIterations+1 {
		t.Errorf("gave up in stage %q round %d, want %q round %d", nf.Stage, nf.Round, stage, maxIterations+1)
	}
}

// TestWorklistNoFixpoint: the worklist refinement returns ErrNoFixpoint
// when it reaches its round cap, instead of panicking. Under the default
// cap the same chain converges.
func TestWorklistNoFixpoint(t *testing.T) {
	g := blankChain(t, 20)
	requireNoFixpoint(t, StageRefine, func() error {
		_, _, err := (&Engine{}).Deblank(g, NewInterner())
		return err
	})
	if _, _, err := (&Engine{}).Deblank(g, NewInterner()); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedWorklistNoFixpoint is TestWorklistNoFixpoint for the weighted
// worklist behind Propagate.
func TestWeightedWorklistNoFixpoint(t *testing.T) {
	c := rdf.Union(blankChain(t, 20), blankChain(t, 20))
	propagate := func() error {
		_, _, err := (&Engine{}).Propagate(c, NewWeighted(TrivialPartition(c.Graph, NewInterner())), 0)
		return err
	}
	requireNoFixpoint(t, StagePropagate, propagate)
	if err := propagate(); err != nil {
		t.Fatal(err)
	}
}
