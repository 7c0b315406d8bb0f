package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"rdfalign"
	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/similarity"
)

// Layers are the repository's modules whose exported calls the benchmark
// times; layerOp marks the root span of one operation.
const (
	layerRDF        = "rdf"
	layerCore       = "core"
	layerSimilarity = "similarity"
	layerArchive    = "archive"
	layerSnapshot   = "snapshot"
	layerSession    = "session"
	layerServer     = "server"
	layerOp         = "op"
)

var layers = []string{layerRDF, layerCore, layerSimilarity, layerArchive, layerSnapshot, layerSession, layerServer}

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     int    `json:"op"`     // operation index; -1 for work outside the operations
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	// Rounds and Dirty count the progress events reported during the call,
	// by stage: completed rounds and the nodes they recolored.
	Rounds map[string]int `json:"rounds,omitempty"`
	Dirty  map[string]int `json:"dirty,omitempty"`
}

// tracer records spans in memory; writeFile saves them when the run ends.
// A nil tracer records nothing, so one code path serves traced and untraced
// operations.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	open  []int // stack of open spans
	op    int
	alloc [1]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.alloc[0].Name = "/gc/heap/allocs:bytes"
	return t
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc[:])
	return t.alloc[0].Value.Uint64()
}

// since returns t's offset from the tracer's epoch in nanoseconds.
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func noop() {}

// beginOp opens the root span of operation i.
func (t *tracer) beginOp(i int) func() {
	if t == nil {
		return noop
	}
	t.op = i
	return t.begin(layerOp, "op")
}

// begin opens a span around one call into layer and returns the function
// that closes it. Spans nest: a span opened while another is open is its
// child.
func (t *tracer) begin(layer, name string) func() {
	if t == nil {
		return noop
	}
	t.mu.Lock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Op: t.op, Parent: parent, Alloc: t.allocated()})
	t.open = append(t.open, id)
	t.spans[id].Start = t.since(time.Now())
	t.mu.Unlock()
	return func() { t.end(id) }
}

func (t *tracer) end(id int) {
	now := t.since(time.Now())
	alloc := t.allocated()
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	s.Alloc = alloc - s.Alloc
	t.open = t.open[:len(t.open)-1]
	t.mu.Unlock()
}

// add records a finished span and returns its index; the load generator
// times its requests itself, from many goroutines.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// observe attributes a progress event to the innermost open span. It is
// the progress observer of traced calls and may be called from the
// library's worker goroutines.
func (t *tracer) observe(ev rdfalign.Progress) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.open) == 0 {
		return
	}
	s := &t.spans[t.open[len(t.open)-1]]
	if s.Rounds == nil {
		s.Rounds, s.Dirty = map[string]int{}, map[string]int{}
	}
	s.Rounds[ev.Stage]++
	s.Dirty[ev.Stage] += ev.Dirty
}

// layerMetrics computes the span-based per-layer metrics over the traced
// operations: each layer's share of operation time and MiB allocated per
// operation, both from self time (a span's own figure minus its children's),
// and the progress counts per operation.
func (t *tracer) layerMetrics(ops int) map[string]float64 {
	m := map[string]float64{}
	if t == nil || ops == 0 {
		return m
	}
	childDur := make([]int64, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += s.Alloc
		}
	}
	var opTotal, opSelf float64
	self, alloc := map[string]float64{}, map[string]float64{}
	rounds, dirty := map[string]int{}, map[string]int{}
	for i, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		d := float64(s.End - s.Start - childDur[i])
		if s.Layer == layerOp {
			opTotal += float64(s.End - s.Start)
			opSelf += d
			continue
		}
		self[s.Layer] += d
		alloc[s.Layer] += float64(s.Alloc) - float64(childAlloc[i])
		for st, n := range s.Rounds {
			rounds[st] += n
			dirty[st] += s.Dirty[st]
		}
	}
	if opTotal == 0 {
		return m
	}
	m["trace.unattributed_frac"] = opSelf / opTotal
	perOp := func(x float64) float64 { return x / float64(ops) }
	for _, l := range layers {
		if d, ok := self[l]; ok {
			m[l+".self_frac"] = d / opTotal
			if l != layerServer {
				m[l+".alloc_mb_per_op"] = perOp(alloc[l]) / (1 << 20)
			}
		}
	}
	for stage, name := range map[string]string{"refine": "core.refine", "propagate": "similarity.propagate"} {
		if n, ok := rounds[stage]; ok {
			m[name+"_rounds"] = perOp(float64(n))
			m[name+"_dirty"] = perOp(float64(dirty[stage]))
		}
	}
	if n, ok := rounds["overlap"]; ok {
		m["similarity.overlap_rounds"] = perOp(float64(n))
	}
	return m
}

// writeFile saves the spans as JSON.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, t.spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// decomposed is an alignment computed by alignTraced.
type decomposed struct {
	c    *rdf.Combined
	rel  *core.Alignment
	part *core.Partition // the partition EdgeStats reads
	// overlap is the Overlap method's result; nil for Hybrid.
	overlap *similarity.OverlapResult
}

func (d *decomposed) digest() digest {
	st := core.EdgeAlignment(d.c, d.part)
	return pairDigest(d.c.SourceGraph(), d.c.TargetGraph(), d.rel.Pairs, st.Common, st.Union())
}

// alignTraced runs the call sequence Aligner.Align composes for the Hybrid
// and Overlap methods (aligner.go) with a span around each layer call:
// Union, LabelPartition, DeblankFrom, HybridFromDeblank and, for Overlap,
// OverlapAlign. workers is the aligner's WithParallelism value (0 without
// one). The traced-run gate compares its digest with Aligner.Align's on the
// same inputs, so a change to the composition inside Align shows as a
// failed run until this sequence follows it.
func alignTraced(ctx context.Context, tr *tracer, method rdfalign.Method, workers int, g1, g2 *rdfalign.Graph) (*decomposed, error) {
	end := tr.begin(layerRDF, "union")
	c := rdfalign.Union(g1, g2)
	end()
	eng := &core.Engine{Hooks: core.Hooks{Ctx: ctx, OnRound: tr.observe}, Workers: workers}
	end = tr.begin(layerCore, "label")
	base := core.LabelPartition(c.Graph, core.NewInterner())
	end()
	end = tr.begin(layerCore, "deblank")
	deblank, _, err := eng.DeblankFrom(c.Graph, base)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin(layerCore, "hybrid")
	hybrid, _, err := eng.HybridFromDeblank(c, deblank)
	end()
	if err != nil {
		return nil, err
	}
	switch method {
	case rdfalign.Hybrid:
		return &decomposed{c: c, rel: core.NewAlignment(c, hybrid), part: hybrid}, nil
	case rdfalign.Overlap:
		end = tr.begin(layerSimilarity, "overlap")
		res, err := similarity.OverlapAlign(c, hybrid, similarity.OverlapOptions{
			Theta:   similarity.DefaultTheta,
			Hooks:   eng.Hooks,
			Workers: workers,
			State:   &similarity.OverlapState{},
		})
		end()
		if err != nil {
			return nil, err
		}
		return &decomposed{c: c, rel: res.Alignment(c), part: res.Xi.P, overlap: res}, nil
	}
	return nil, fmt.Errorf("no traced decomposition for method %v", method)
}
