package similarity

import (
	"fmt"
	"runtime"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/dataset"
	"rdfalign/internal/rdf"
	"rdfalign/internal/strdist"
)

// BenchmarkOverlapMatch measures one literal matching scan (Algorithm 1) on
// a 500×500 word-set workload, sequential and with a 4-worker fan-out (on a
// single-core host the parallel variant can only show its coordination
// overhead; the speedup needs cores).
func BenchmarkOverlapMatch(b *testing.B) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	var l1, l2 []string
	for i := 0; i < 500; i++ {
		l1 = append(l1, fmt.Sprintf("%s %s %s #%d", words[i%8], words[(i/3)%8], words[(i/7)%8], i%26))
		l2 = append(l2, fmt.Sprintf("%s %s %s #%d", words[i%8], words[(i/3)%8], words[(i/5)%8], i%26))
	}
	c, aa, bb := literalNodesB(b, l1, l2)
	theta := 0.65
	char := func(n rdf.NodeID) []string { return Split(c.Label(n).Value) }
	dist := func(n, m rdf.NodeID) (float64, bool) {
		return strdist.WithinThreshold(c.Label(n).Value, c.Label(m).Value, theta)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("par%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OverlapMatch(aa, bb, theta, char, dist, core.Hooks{}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverlapAlignCascade runs the full Algorithm 2 on a deep cascade
// (13 matching rounds) surrounded by 250 never-aligning distractor nodes
// per side — the shape where the incremental per-round index pays:
// "scratch" rebuilds the inverted index and every characterisation each
// round, "incremental" repairs them from the round's change lists.
func BenchmarkOverlapAlignCascade(b *testing.B) {
	g1, g2 := cascadePair(b, 12, 250)
	for _, mode := range []struct {
		name    string
		scratch bool
	}{{"incremental", false}, {"scratch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := rdf.Union(g1, g2)
				in := core.NewInterner()
				hp, _, _ := (&core.Engine{}).Hybrid(c, in)
				b.StartTimer()
				res, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65, scratchIndex: mode.scratch})
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != 14 {
					b.Fatalf("cascade rounds = %d, want 14", res.Rounds)
				}
			}
		})
	}
}

// gtopdbOverlapInput returns the union of the first GtoPdb version pair at
// the given scale (seed 11) and its hybrid partition — the input Overlap
// alignment starts from. GtoPdb renames every URI between versions, so the
// overlap matching does most of the work.
func gtopdbOverlapInput(tb testing.TB, scale float64) (*rdf.Combined, *core.Partition) {
	tb.Helper()
	d, err := dataset.GenerateGtoPdb(dataset.GtoPdbConfig{Versions: 2, Scale: scale, Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	c := rdf.Union(d.Graphs[0], d.Graphs[1])
	hp, _, _ := (&core.Engine{}).Hybrid(c, core.NewInterner())
	return c, hp
}

// BenchmarkOverlapAlignGtoPdb times Algorithm 2 on a GtoPdb pair at scale
// 0.05, sequential and with one matching worker per core.
func BenchmarkOverlapAlignGtoPdb(b *testing.B) {
	c, hp := gtopdbOverlapInput(b, 0.05)
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"procs", runtime.GOMAXPROCS(0)}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := OverlapAlign(c, hp, OverlapOptions{Theta: DefaultTheta, Workers: cfg.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
