package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/strdist"
)

// cascadePair builds a graph pair whose overlap alignment needs one
// non-literal matching round per chain level: an edited literal at the
// bottom of a chain g1-x0 ← g1-x1 ← … seeds the cascade, every level
// carries a shared "anchor" literal (so the σNL coupling keeps the distance
// under θ) and a side-1-only "wrinkle" literal (so propagation alone cannot
// align the level and the matching round has to). distractors adds
// never-aligning non-literal nodes per side, which fatten the matcher's A/B
// sets without ever changing — the workload the incremental index is for.
func cascadePair(tb testing.TB, depth, distractors int) (*rdf.Graph, *rdf.Graph) {
	tb.Helper()
	mk := func(name string, wrinkled bool) *rdf.Graph {
		b := rdf.NewBuilder(name)
		lit := "alpha gamma"
		if wrinkled {
			lit = "alpha beta gamma"
		}
		var prev rdf.NodeID
		for i := 0; i <= depth; i++ {
			x := b.URI(fmt.Sprintf("%s-x%d", name, i))
			if i == 0 {
				b.TripleURI(x, "p", b.Literal(lit))
			} else {
				b.TripleURI(x, "p", prev)
			}
			b.TripleURI(x, "p", b.Literal(fmt.Sprintf("anchor %d", i)))
			if wrinkled {
				b.TripleURI(x, "p", b.Literal(fmt.Sprintf("wrinkle level %d", i)))
			}
			prev = x
		}
		for j := 0; j < distractors; j++ {
			y := b.URI(fmt.Sprintf("%s-dis%d", name, j))
			b.TripleURI(y, "p", b.Literal(fmt.Sprintf("%s junk %d", name, j)))
		}
		g, err := b.Graph()
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	return mk("g1", true), mk("g2", false)
}

// overlapResultsEqual asserts two OverlapAlign results (from identically
// rebuilt inputs) are bit-identical: colors, weights, rounds, pair and
// candidate counts.
func overlapResultsEqual(t *testing.T, label string, c *rdf.Combined, want, got *OverlapResult) {
	t.Helper()
	if want.Rounds != got.Rounds || want.LiteralPairs != got.LiteralPairs ||
		want.NonLiteralPairs != got.NonLiteralPairs || want.Candidates != got.Candidates {
		t.Fatalf("%s: rounds/pairs/candidates = %d/%d/%d/%d, want %d/%d/%d/%d", label,
			got.Rounds, got.LiteralPairs, got.NonLiteralPairs, got.Candidates,
			want.Rounds, want.LiteralPairs, want.NonLiteralPairs, want.Candidates)
	}
	for i := 0; i < c.NumNodes(); i++ {
		n := rdf.NodeID(i)
		if want.Xi.P.Color(n) != got.Xi.P.Color(n) {
			t.Fatalf("%s: color(%d) = %d, want %d", label, n, got.Xi.P.Color(n), want.Xi.P.Color(n))
		}
		if want.Xi.W[n] != got.Xi.W[n] {
			t.Fatalf("%s: w(%d) = %v, want %v (not bit-identical)", label, n, got.Xi.W[n], want.Xi.W[n])
		}
	}
}

// TestOverlapMatchWorkersBitIdentical: the parallel literal matching scan
// is edge-for-edge identical to the sequential one for every worker count.
func TestOverlapMatchWorkersBitIdentical(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	r := rand.New(rand.NewSource(7))
	mk := func(n int) []string {
		out := make([]string, 0, n)
		seen := map[string]bool{}
		for len(out) < n {
			k := 1 + r.Intn(4)
			s := ""
			for j := 0; j < k; j++ {
				if j > 0 {
					s += " "
				}
				s += words[r.Intn(len(words))]
			}
			s += fmt.Sprintf(" #%d", r.Intn(50))
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out
	}
	for _, size := range []int{3, 40, 150} {
		c, a, b := literalNodes(t, mk(size), mk(size))
		theta := 0.5
		char := func(n rdf.NodeID) []string { return Split(c.Label(n).Value) }
		dist := func(n, m rdf.NodeID) (float64, bool) {
			return strdist.WithinThreshold(c.Label(n).Value, c.Label(m).Value, theta)
		}
		want, err := OverlapMatch(a, b, theta, char, dist, core.Hooks{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := OverlapMatch(a, b, theta, char, dist, core.Hooks{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Edges, got.Edges) {
				t.Fatalf("size %d workers %d: edges diverge from sequential:\n%v\nvs\n%v",
					size, workers, got.Edges, want.Edges)
			}
		}
	}
}

// TestOverlapAlignWorkersBitIdentical: the whole Algorithm 2 — literal
// match, per-round non-literal matches, propagation — produces bit-identical
// colorings and weights for every worker count. Inputs are rebuilt per
// configuration so interner state is identical.
func TestOverlapAlignWorkersBitIdentical(t *testing.T) {
	run := func(workers int) (*rdf.Combined, *OverlapResult) {
		g1, g2 := cascadePair(t, 5, 40)
		c, hp := combine(t, g1, g2)
		res, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return c, res
	}
	c, want := run(1)
	if want.Rounds < 6 {
		t.Fatalf("cascade too shallow to exercise the incremental matcher: %d rounds", want.Rounds)
	}
	for _, workers := range []int{2, 4, 8} {
		_, got := run(workers)
		overlapResultsEqual(t, fmt.Sprintf("workers=%d", workers), c, want, got)
	}
}

// TestOverlapAlignIncrementalMatchesScratch: the incrementally maintained
// per-round index is an exact stand-in for a from-scratch rebuild on the
// full alignment result, across structured and random workloads.
func TestOverlapAlignIncrementalMatchesScratch(t *testing.T) {
	t.Run("cascade", func(t *testing.T) {
		run := func(scratch bool) (*rdf.Combined, *OverlapResult) {
			g1, g2 := cascadePair(t, 6, 25)
			c, hp := combine(t, g1, g2)
			res, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65, scratchIndex: scratch})
			if err != nil {
				t.Fatal(err)
			}
			return c, res
		}
		c, want := run(true)
		_, got := run(false)
		overlapResultsEqual(t, "incremental", c, want, got)
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 40; seed++ {
			run := func(scratch bool) (*rdf.Combined, *OverlapResult) {
				c := randomCombined(rand.New(rand.NewSource(seed)))
				in := core.NewInterner()
				hp, _, _ := (&core.Engine{}).Hybrid(c, in)
				res, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65, scratchIndex: scratch})
				if err != nil {
					t.Fatal(err)
				}
				return c, res
			}
			c, want := run(true)
			_, got := run(false)
			overlapResultsEqual(t, fmt.Sprintf("seed %d", seed), c, want, got)
		}
	})
}

// TestNLMatcherIndexMatchesRebuild drives the Algorithm 2 loop manually and
// compares, after every round, the incremental matcher's H and index state
// against a matcher rebuilt from scratch for that round: posting lists
// (as sets), characterisations, sorted characterisations and σNL edge
// lists of every current A/B node.
func TestNLMatcherIndexMatchesRebuild(t *testing.T) {
	check := func(t *testing.T, c *rdf.Combined, hp *core.Partition) {
		t.Helper()
		const theta = 0.65
		xi := core.NewWeighted(hp.Clone())
		a0, b0 := unalignedLiterals(c, xi.P)
		h, err := OverlapMatch(a0, b0, theta, func(n rdf.NodeID) []string {
			return Split(c.Label(n).Value)
		}, func(n, m rdf.NodeID) (float64, bool) {
			return strdist.WithinThreshold(c.Label(n).Value, c.Label(m).Value, theta)
		}, core.Hooks{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ws := core.NewWorkspace()
		eng := &core.Engine{Work: ws}
		inc := newNLMatcher(c, theta, 1)
		for round := 1; round <= 100; round++ {
			enrichChanged := Enrich(xi, h, ws)
			_, propChanged, err := eng.Propagate(c, xi, 0)
			if err != nil {
				t.Fatal(err)
			}
			changed := append(append([]rdf.NodeID(nil), enrichChanged...), propChanged...)
			ai, bi := unalignedNonLiteralsBySide(c, xi.P)
			hInc, err := inc.round(xi, ai, bi, changed, core.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			scr := newNLMatcher(c, theta, 1)
			hScr, err := scr.round(xi, ai, bi, nil, core.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hInc.Edges, hScr.Edges) {
				t.Fatalf("round %d: incremental H diverges:\n%v\nvs scratch\n%v", round, hInc.Edges, hScr.Edges)
			}
			compareIndexes(t, round, c, inc, scr, ai, bi)
			h = hInc
			if !h.HasEdges() {
				return
			}
		}
		t.Fatal("cascade did not terminate in 100 rounds")
	}
	t.Run("cascade", func(t *testing.T) {
		g1, g2 := cascadePair(t, 6, 15)
		c, hp := combine(t, g1, g2)
		check(t, c, hp)
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 30; seed++ {
			c := randomCombined(rand.New(rand.NewSource(seed)))
			in := core.NewInterner()
			hp, _, _ := (&core.Engine{}).Hybrid(c, in)
			check(t, c, hp)
		}
	})
}

func compareIndexes(t *testing.T, round int, c *rdf.Combined, inc, scr *nlMatcher, a, b []rdf.NodeID) {
	t.Helper()
	keys := map[uint64]bool{}
	for k := range inc.inv {
		keys[k] = true
	}
	for k := range scr.inv {
		keys[k] = true
	}
	for k := range keys {
		pi := append([]rdf.NodeID(nil), inc.inv[k]...)
		ps := append([]rdf.NodeID(nil), scr.inv[k]...)
		core.SortNodeIDs(pi)
		core.SortNodeIDs(ps)
		if !reflect.DeepEqual(pi, ps) {
			t.Fatalf("round %d: postings for key %d diverge: %v vs %v", round, k, pi, ps)
		}
	}
	for _, n := range append(append([]rdf.NodeID(nil), a...), b...) {
		if !scr.have[n] {
			// The scratch matcher skips the A-side caches when a round
			// has an empty side; the incremental one may retain entries
			// from earlier rounds, which is fine.
			continue
		}
		if !inc.have[n] {
			t.Fatalf("round %d: node %d missing from the incremental cache", round, n)
		}
		if !reflect.DeepEqual(inc.char[n], scr.char[n]) {
			t.Fatalf("round %d: char(%d) = %v, scratch %v", round, n, inc.char[n], scr.char[n])
		}
		if !reflect.DeepEqual(inc.sorted[n], scr.sorted[n]) {
			t.Fatalf("round %d: sorted(%d) = %v, scratch %v", round, n, inc.sorted[n], scr.sorted[n])
		}
		if !reflect.DeepEqual(inc.nl[n], scr.nl[n]) {
			t.Fatalf("round %d: nlEdges(%d) = %v, scratch %v", round, n, inc.nl[n], scr.nl[n])
		}
	}
}

// TestOverlapAlignCascadeDepth pins the cascade workload itself: depth+1
// rounds, every chain level aligned, distractors left alone.
func TestOverlapAlignCascadeDepth(t *testing.T) {
	const depth = 5
	g1, g2 := cascadePair(t, depth, 10)
	c, hp := combine(t, g1, g2)
	res, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != depth+2 {
		t.Errorf("rounds = %d, want %d (one per level plus the empty final round)", res.Rounds, depth+2)
	}
	for i := 0; i <= depth; i++ {
		n1 := srcNode(t, c, fmt.Sprintf("g1-x%d", i))
		n2 := tgtNode(t, c, fmt.Sprintf("g2-x%d", i))
		if res.Xi.P.Color(n1) != res.Xi.P.Color(n2) {
			t.Errorf("level %d not aligned", i)
		}
		if d := res.Xi.Distance(n1, n2); d > res.Theta {
			t.Errorf("level %d distance %v > θ", i, d)
		}
	}
	d1 := srcNode(t, c, "g1-dis0")
	d2 := tgtNode(t, c, "g2-dis0")
	if res.Xi.P.Color(d1) == res.Xi.P.Color(d2) {
		t.Error("distractors must stay unaligned")
	}
	if math.IsNaN(res.Xi.W[srcNode(t, c, fmt.Sprintf("g1-x%d", depth))]) {
		t.Error("cascade weights must stay finite")
	}
}

// TestOverlapAlignReusesHybrid runs OverlapAlign repeatedly on one hybrid
// partition, as the θ sweeps do: under different thresholds, without and
// with a shared OverlapState and Workspace. Every round refines the call's
// own ξ in place, so the hybrid partition must come out of every call
// unchanged, and every result must equal a fresh run's on freshly built
// inputs — the same grouping, bit-identical weights and the same counts
// (color numbers differ, because the shared interner minted more colors).
func TestOverlapAlignReusesHybrid(t *testing.T) {
	workloads := map[string]func() (*rdf.Combined, *core.Partition){
		"cascade": func() (*rdf.Combined, *core.Partition) {
			g1, g2 := cascadePair(t, 5, 20)
			return combine(t, g1, g2)
		},
	}
	for seed := int64(0); seed < 12; seed++ {
		workloads[fmt.Sprintf("random%d", seed)] = func() (*rdf.Combined, *core.Partition) {
			c := randomCombined(rand.New(rand.NewSource(seed)))
			hp, _, _ := (&core.Engine{}).Hybrid(c, core.NewInterner())
			return c, hp
		}
	}
	for name, build := range workloads {
		c, hp := build()
		hybrid := slices.Clone(hp.Colors())
		var st OverlapState
		ws := core.NewWorkspace()
		for i, cfg := range []struct {
			theta  float64
			shared bool
		}{{0.65, false}, {0.5, true}, {0.65, true}, {0.65, true}, {0.8, false}} {
			opt := OverlapOptions{Theta: cfg.theta}
			if cfg.shared {
				opt.State, opt.Work = &st, ws
			}
			got, err := OverlapAlign(c, hp, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(hp.Colors(), hybrid) {
				t.Fatalf("%s call %d: OverlapAlign modified the hybrid partition", name, i)
			}
			fc, fhp := build()
			want, err := OverlapAlign(fc, fhp, OverlapOptions{Theta: cfg.theta})
			if err != nil {
				t.Fatal(err)
			}
			if want.Rounds != got.Rounds || want.LiteralPairs != got.LiteralPairs ||
				want.NonLiteralPairs != got.NonLiteralPairs || want.Candidates != got.Candidates {
				t.Fatalf("%s call %d: rounds/pairs/candidates %d/%d/%d/%d, fresh %d/%d/%d/%d", name, i,
					got.Rounds, got.LiteralPairs, got.NonLiteralPairs, got.Candidates,
					want.Rounds, want.LiteralPairs, want.NonLiteralPairs, want.Candidates)
			}
			if !core.Equivalent(want.Xi.P, got.Xi.P) || !slices.Equal(want.Xi.W, got.Xi.W) {
				t.Fatalf("%s call %d (θ=%v, shared=%v): result differs from a fresh run", name, i, cfg.theta, cfg.shared)
			}
		}
	}
}
