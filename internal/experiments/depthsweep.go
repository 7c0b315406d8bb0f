package experiments

import (
	"fmt"
	"strings"
	"time"

	"rdfalign/internal/benchjson"
	"rdfalign/internal/core"
	"rdfalign/internal/dataset"
	"rdfalign/internal/rdf"
	"rdfalign/internal/truth"
)

// This file implements the bounded-depth sweep: for each dataset it runs
// the deblank+hybrid alignment fixpoints at a range of depth bounds k, and
// reports partition size, precision/recall against the dataset's ground
// truth, and wall time. The quality columns show what ambiguity each bound
// leaves, while the time column exposes how much of the exact fixpoint's
// cost small k buys back.

// DepthSweepDepths is the default bound set: the small bounds where
// k-bisimulation pays off, a mid-range bound, and 0 (the exact unbounded
// fixpoint).
var DepthSweepDepths = []int{1, 2, 3, 5, 10, 0}

// DepthRow is one (dataset, depth) cell of the sweep.
type DepthRow struct {
	Dataset string
	Depth   int // 0 = exact unbounded fixpoint
	Rounds  int // applied rounds across the deblank + hybrid fixpoints
	Classes int // equivalence classes of the hybrid partition
	// Precision is (exact+inclusive)/(exact+inclusive+false) against the
	// dataset's ground truth; Recall is (exact+inclusive)/(exact+
	// inclusive+missing). Both are 0 when the denominator is empty.
	Precision float64
	Recall    float64
	Seconds   float64
}

// DepthSweepResult holds the sweep grid.
type DepthSweepResult struct {
	Depths []int
	Rows   []DepthRow
}

// depthTarget is one dataset of the sweep: a combined version pair and its
// ground truth.
type depthTarget struct {
	name string
	c    *rdf.Combined
	tr   *truth.Truth
}

// depthTargets assembles the sweep datasets: the first consecutive pair of
// the two paper datasets with key-derived ground truth (GtoPdb and EFO),
// plus a pair of the streaming DBpedia-like corpus with the identity truth
// on shared URIs (an entity persists across versions iff its URI does).
func (e *Env) depthTargets() []depthTarget {
	g := e.GtoPdb()
	f := e.EFO()
	s1, s2 := e.streamPair()
	return []depthTarget{
		{"gtopdb", rdf.Union(g.Graphs[0], g.Graphs[1]), g.GroundTruth(0, 1)},
		{"efo", rdf.Union(f.Graphs[0], f.Graphs[1]), f.GroundTruth(0, 1)},
		{"stream", rdf.Union(s1, s2), identityTruth(s1, s2)},
	}
}

// streamPair generates and parses versions 1 and 2 of the streaming
// corpus, sized well below the paper datasets so the sweep stays fast.
func (e *Env) streamPair() (*rdf.Graph, *rdf.Graph) {
	parse := func(v int) *rdf.Graph {
		var sb strings.Builder
		if _, err := dataset.StreamNTriples(&sb, dataset.StreamConfig{
			Triples: 12_000, Version: v, Seed: e.Cfg.Seed,
		}); err != nil {
			panic(fmt.Sprintf("experiments: stream generation failed: %v", err))
		}
		g, err := rdf.ParseNTriplesString(sb.String(), fmt.Sprintf("stream-v%d", v))
		if err != nil {
			panic(fmt.Sprintf("experiments: stream parse failed: %v", err))
		}
		return g
	}
	return parse(1), parse(2)
}

// identityTruth maps every URI present in both graphs to itself.
func identityTruth(src, tgt *rdf.Graph) *truth.Truth {
	inTgt := make(map[string]bool)
	tgt.Nodes(func(n rdf.NodeID) {
		if tgt.IsURI(n) {
			inTgt[tgt.Label(n).Value] = true
		}
	})
	tr := truth.New()
	src.Nodes(func(n rdf.NodeID) {
		if src.IsURI(n) {
			if u := src.Label(n).Value; inTgt[u] {
				tr.Add(u, u)
			}
		}
	})
	return tr
}

// DepthSweep runs the bounded-depth sweep at the given bounds
// (DepthSweepDepths when none are given).
func (e *Env) DepthSweep(depths ...int) *DepthSweepResult {
	if len(depths) == 0 {
		depths = DepthSweepDepths
	}
	out := &DepthSweepResult{Depths: depths}
	for _, tgt := range e.depthTargets() {
		for _, k := range depths {
			out.Rows = append(out.Rows, e.depthCell(tgt, k))
		}
	}
	return out
}

// depthCell runs one (dataset, depth) alignment and classifies it.
func (e *Env) depthCell(tgt depthTarget, k int) DepthRow {
	eng := &core.Engine{Hooks: e.Cfg.Hooks, MaxDepth: k}
	start := time.Now()
	in := core.NewInterner()
	deblank, r1, err := eng.Deblank(tgt.c.Graph, in)
	if err != nil {
		panic(fmt.Sprintf("experiments: depth sweep deblank on %s: %v", tgt.name, err))
	}
	hybrid, r2, err := eng.HybridFromDeblank(tgt.c, deblank)
	if err != nil {
		panic(fmt.Sprintf("experiments: depth sweep hybrid on %s: %v", tgt.name, err))
	}
	secs := time.Since(start).Seconds()
	p := truth.Classify(tgt.c, core.NewAlignment(tgt.c, hybrid).MatchesOf, tgt.tr)
	good := float64(p.Exact + p.Inclusive)
	row := DepthRow{
		Dataset: tgt.name,
		Depth:   k,
		Rounds:  r1 + r2,
		Classes: hybrid.NumClasses(),
		Seconds: secs,
	}
	if denom := good + float64(p.False); denom > 0 {
		row.Precision = good / denom
	}
	if denom := good + float64(p.Missing); denom > 0 {
		row.Recall = good / denom
	}
	return row
}

// String renders the sweep as a table.
func (r *DepthSweepResult) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		depth := "exact"
		if row.Depth > 0 {
			depth = fmt.Sprintf("k=%d", row.Depth)
		}
		rows[i] = []string{row.Dataset, depth, itoa(row.Rounds),
			itoa(row.Classes), f3(row.Precision), f3(row.Recall),
			fmt.Sprintf("%.4f", row.Seconds)}
	}
	return renderTable("Bounded-depth sweep: datasets × depth bounds",
		[]string{"dataset", "depth", "rounds", "classes", "precision", "recall", "seconds"}, rows)
}

// Workload renders the sweep in the BENCH_refine.json schema, one result
// per cell named DepthSweep/<dataset>/k=<depth> (k=0 is the exact
// fixpoint).
func (r *DepthSweepResult) Workload(note string) benchjson.Workload {
	w := benchjson.Workload{Name: "DepthSweep", Note: note}
	for _, row := range r.Rows {
		w.Results = append(w.Results, benchjson.Result{
			Bench: fmt.Sprintf("DepthSweep/%s/k=%d", row.Dataset, row.Depth),
			NsOp:  row.Seconds * 1e9,
		})
	}
	return w
}
