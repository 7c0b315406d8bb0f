package rdfalign

// Benchmark harness: one testing.B benchmark per evaluation figure of
// Buneman & Staworko (PVLDB 2016), §5, plus the DESIGN.md ablations and
// per-method micro-benchmarks. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks run at a reduced scale so the full suite completes
// in minutes; cmd/benchfig regenerates the figures at the EXPERIMENTS.md
// scale (and beyond, with -scale).

import (
	"context"
	"strconv"
	"sync"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/experiments"
	"rdfalign/internal/rdf"
)

// benchConfig is a reduced-scale configuration for the figure benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.EFOScale = 0.02
	cfg.GtoPdbScale = 0.008
	cfg.DBpediaScale = 0.002
	return cfg
}

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

// env returns a shared environment so dataset generation cost is paid once
// across the figure benchmarks (the per-figure alignment work is what each
// benchmark times; the first iteration of each also warms the pair cache,
// which is the cost a user of benchfig pays).
func env() *experiments.Env {
	benchEnvOnce.Do(func() { benchEnv = experiments.NewEnv(benchConfig()) })
	return benchEnv
}

func BenchmarkFig09EFODatasetStats(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Fig9()
		if len(r.Stats) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig10TrivialDeblankMatrix(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Fig10()
		if len(r.Trivial) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig11HybridOverlapGains(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Fig11()
		if len(r.HybridVsDeblank) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig12GtoPdbDatasetStats(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Fig12()
		if len(r.Stats) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig13GtoPdbAlignments(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Fig13()
		if len(r.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig14GtoPdbPrecision(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Fig14()
		if len(r.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig15ThresholdSweep(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Fig15()
		if len(r.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig16DBpediaScalability(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Fig16()
		if len(r.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkAblationSigmaEditVsOverlap(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.AblationSigmaEdit()
		if r.TheoremViolations != 0 {
			b.Fatalf("Theorem 1 violations: %d", r.TheoremViolations)
		}
	}
}

func BenchmarkAblationPrefixFilter(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.AblationPrefixFilter()
		if r.HeuristicPairs != r.BrutePairs {
			b.Fatal("prefix filter lost pairs")
		}
	}
}

func BenchmarkAblationInterner(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.AblationRefinement()
		if !r.Agree {
			b.Fatal("solvers disagree")
		}
	}
}

func BenchmarkAblationContext(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.AblationContext()
		if r.OutPrecision.Total() == 0 {
			b.Fatal("empty ablation")
		}
	}
}

func BenchmarkAblationFlooding(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.AblationFlooding()
		if r.GtoPdbPCG != 0 {
			b.Fatal("flooding found pairs on prefix-disjoint data")
		}
	}
}

func BenchmarkArchiveExperiment(b *testing.B) {
	e := env()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.ExperimentArchive()
		if len(r.Rows) == 0 {
			b.Fatal("empty archive experiment")
		}
	}
}

// Refinement-engine micro-benchmarks on the incremental worklist engine.
// The CI smoke step runs these with -benchtime=1x; the benchmark
// regression gate compares fresh runs against the BENCH_refine.json
// baseline with benchstat and cmd/benchgate.

// benchRefine times one refinement workload on the default engine. One
// untimed run first builds the graph's lazily constructed adjacency
// indexes, so the timed runs measure refinement alone.
func benchRefine(b *testing.B, run func(e *core.Engine) error) {
	e := &core.Engine{}
	if err := run(e); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(e); err != nil {
			b.Fatal(err)
		}
	}
}

// refineChainGraph builds a chain of n blank nodes ending in a URI — the
// deepest possible fixpoint (one node stabilises per round), where a
// full recoloring would pay O(n) recolors per round for O(n) rounds.
func refineChainGraph(n int) *rdf.Graph {
	b := rdf.NewBuilder("refine-chain")
	p := b.URI("p")
	prev := b.URI("end")
	for i := 0; i < n; i++ {
		cur := b.FreshBlank()
		b.Triple(cur, p, prev)
		prev = cur
	}
	return b.MustGraph()
}

func BenchmarkRefineDeblankChain(b *testing.B) {
	g := refineChainGraph(1500)
	benchRefine(b, func(e *core.Engine) error {
		_, _, err := e.Deblank(g, core.NewInterner())
		return err
	})
}

// refineWideDeepGraph is the workload the worklist engine exists for: a
// wide region of nWide blank nodes that stabilises after the first round
// next to a deep chain of nDeep blanks that needs nDeep rounds. A full
// recoloring would touch all nWide+nDeep nodes for nDeep rounds; the
// worklist's frontier drops to the chain suffix after round one.
func refineWideDeepGraph(nWide, nDeep int) *rdf.Graph {
	b := rdf.NewBuilder("refine-wide-deep")
	p := b.URI("p")
	q := b.URI("q")
	var lits []rdf.NodeID
	for i := 0; i < 200; i++ {
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

func BenchmarkRefineDeblankWideDeep(b *testing.B) {
	g := refineWideDeepGraph(20000, 500)
	benchRefine(b, func(e *core.Engine) error {
		_, _, err := e.Deblank(g, core.NewInterner())
		return err
	})
}

// depthBenchBounds are the sub-benchmark depth bounds of the two depth
// benchmarks (0 = the exact unbounded fixpoint).
var depthBenchBounds = []int{1, 2, 3, 5, 10, 0}

func depthBenchName(k int) string {
	if k == 0 {
		return "exact"
	}
	return "k=" + strconv.Itoa(k)
}

// BenchmarkRefineDepth measures what bounded depth buys on the wide+deep
// deblank workload: the deep chain needs nDeep rounds exactly, so a small
// bound skips nearly all of them.
func BenchmarkRefineDepth(b *testing.B) {
	g := refineWideDeepGraph(20000, 500)
	for _, k := range depthBenchBounds {
		e := &core.Engine{MaxDepth: k}
		b.Run(depthBenchName(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Deblank(g, core.NewInterner()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlignDepthSweep times the end-to-end hybrid alignment of a
// GtoPdb pair through the public Aligner at each depth bound — the
// user-visible cost curve behind rdfalign -max-depth and the server's
// ?depth=k query parameter.
func BenchmarkAlignDepthSweep(b *testing.B) {
	d, err := GenerateGtoPdb(GtoPdbConfig{Versions: 2, Scale: 0.008, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	g1, g2 := d.Graphs[0], d.Graphs[1]
	for _, k := range depthBenchBounds {
		al, err := NewAligner(WithMethod(Hybrid), WithMaxDepth(k))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(depthBenchName(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := al.Align(context.Background(), g1, g2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRefinePropagateWideDeep(b *testing.B) {
	// The weighted counterpart: two structurally identical wide-deep
	// versions, propagation rebuilding every blank's identity and weight.
	c := rdf.Union(refineWideDeepGraph(5000, 300), refineWideDeepGraph(5000, 300))
	benchRefine(b, func(e *core.Engine) error {
		xi := core.NewWeighted(core.TrivialPartition(c.Graph, core.NewInterner()))
		_, _, err := e.Propagate(c, xi, 0)
		return err
	})
}

func BenchmarkRefineHybridGtoPdb(b *testing.B) {
	d, err := GenerateGtoPdb(GtoPdbConfig{Versions: 2, Scale: 0.008, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	c := rdf.Union(d.Graphs[0], d.Graphs[1])
	benchRefine(b, func(e *core.Engine) error {
		_, _, err := e.Hybrid(c, core.NewInterner())
		return err
	})
}

func BenchmarkRefineHybridEFO(b *testing.B) {
	d, err := GenerateEFO(EFOConfig{Versions: 2, Scale: 0.02, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	c := rdf.Union(d.Graphs[0], d.Graphs[1])
	benchRefine(b, func(e *core.Engine) error {
		_, _, err := e.Hybrid(c, core.NewInterner())
		return err
	})
}

func BenchmarkRefinePropagateGtoPdb(b *testing.B) {
	// Propagate((λTrivial, 0)) — the §4.5 identity workload — iterates
	// weighted refinement over every initially-unaligned non-literal.
	d, err := GenerateGtoPdb(GtoPdbConfig{Versions: 2, Scale: 0.008, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	c := rdf.Union(d.Graphs[0], d.Graphs[1])
	benchRefine(b, func(e *core.Engine) error {
		xi := core.NewWeighted(core.TrivialPartition(c.Graph, core.NewInterner()))
		_, _, err := e.Propagate(c, xi, 0)
		return err
	})
}

// Per-method micro-benchmarks on one consecutive GtoPdb pair, timing the
// full Align call (union + partitioning + method work).

func benchAlign(b *testing.B, m Method) {
	b.Helper()
	d, err := GenerateGtoPdb(GtoPdbConfig{Versions: 2, Scale: 0.008, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	g1, g2 := d.Graphs[0], d.Graphs[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alignWith(g1, g2, WithMethod(m)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlignTrivial(b *testing.B) { benchAlign(b, Trivial) }
func BenchmarkAlignDeblank(b *testing.B) { benchAlign(b, Deblank) }
func BenchmarkAlignHybrid(b *testing.B)  { benchAlign(b, Hybrid) }
func BenchmarkAlignOverlap(b *testing.B) { benchAlign(b, Overlap) }

func BenchmarkAlignSigmaEditSmall(b *testing.B) {
	// σEdit is the quadratic baseline: bench it on a much smaller pair.
	d, err := GenerateGtoPdb(GtoPdbConfig{Versions: 2, Scale: 0.001, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	g1, g2 := d.Graphs[0], d.Graphs[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alignWith(g1, g2, WithMethod(SigmaEdit)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseNTriples moved to bench_parse_test.go: it now measures
// the streaming pipeline on a million-triple corpus, sequential vs
// parallel.
