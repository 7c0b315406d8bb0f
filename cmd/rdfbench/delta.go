package main

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"rdfalign"
)

// churnInputs generates releases v1 and v2 of the churn corpus as N-Triples
// and the edit script from v2 to v3. The churn corpus is the stream corpus
// of the maintenance workloads: 0.1% churn per release and no growth, so
// consecutive releases differ by small edits.
func churnInputs(triples int, seed int64) (v1, v2 string, fwd *rdfalign.EditScript, err error) {
	// Growth is a factor; barely above 1 keeps it from defaulting to 8%.
	sc := rdfalign.StreamConfig{Triples: triples, Churn: 0.001, Growth: 1.0000001, Seed: seed}
	if v1, err = streamText(sc); err != nil {
		return
	}
	sc.Version = 2
	if v2, err = streamText(sc); err != nil {
		return
	}
	var b strings.Builder
	if _, _, err = rdfalign.StreamDelta(&b, sc); err != nil {
		return
	}
	fwd, err = rdfalign.ParseEditScriptString(b.String())
	return
}

// deltaMaintain is the delta-maintain workload: a persistent Overlap
// session kept current under small edits. Operations alternate the edit
// script δ (v2→v3) and its inverse, so every operation applies an edit of
// the same size and the target never drifts.
type deltaMaintain struct {
	al       *rdfalign.Aligner
	v1, v2   string
	fwd, bwd *rdfalign.EditScript
	g1, g2   *rdfalign.Graph
	a        *rdfalign.Alignment
	applied  int // deltas applied since the set-up
	// sink is the tracer progress events of the running ApplyDelta go to;
	// nil on untraced operations.
	sink atomic.Pointer[tracer]
}

func runDelta(ctx context.Context, cfg *config) (*result, error) {
	v1, v2, fwd, err := churnInputs(cfg.sizes.deltaTriples, cfg.seed)
	if err != nil {
		return nil, err
	}
	w := &deltaMaintain{v1: v1, v2: v2, fwd: fwd, bwd: fwd.Inverse()}
	opts := []rdfalign.Option{rdfalign.WithMethod(rdfalign.Overlap)}
	if cfg.trace {
		opts = append(opts, rdfalign.WithProgress(func(p rdfalign.Progress) { w.sink.Load().observe(p) }))
	}
	if w.al, err = rdfalign.NewAligner(opts...); err != nil {
		return nil, err
	}
	return runBatch(ctx, cfg, w)
}

// setup parses both releases, aligns them and applies δ and its inverse
// once: the first two deltas build the session's graph editor and
// dependents index, which are one-time costs.
func (w *deltaMaintain) setup(ctx context.Context) error {
	var err error
	if w.g1, err = rdfalign.ParseNTriplesString(w.v1, "v1", rdfalign.WithParseWorkers(-1)); err != nil {
		return err
	}
	if w.g2, err = rdfalign.ParseNTriplesString(w.v2, "v2", rdfalign.WithParseWorkers(-1)); err != nil {
		return err
	}
	if w.a, err = w.al.Align(ctx, w.g1, w.g2); err != nil {
		return err
	}
	for _, s := range []*rdfalign.EditScript{w.fwd, w.bwd} {
		if w.a, err = w.a.ApplyDelta(ctx, s); err != nil {
			return err
		}
	}
	w.applied = 0
	return nil
}

func (w *deltaMaintain) op(ctx context.Context, i int, tr *tracer) error {
	s := w.fwd
	if w.applied%2 == 1 {
		s = w.bwd
	}
	end := tr.begin(layerSession, "apply_delta")
	w.sink.Store(tr)
	a, err := w.a.ApplyDelta(ctx, s)
	w.sink.Store(nil)
	end()
	if err != nil {
		return err
	}
	w.a = a
	w.applied++
	return nil
}

// check runs the maintenance gate: the maintained alignment equals a
// from-scratch alignment of the source against the explicitly edited
// target.
func (w *deltaMaintain) check(ctx context.Context, res *result) error {
	target := w.g2
	if w.applied%2 == 1 {
		var err error
		if target, err = rdfalign.ApplyEditScript(w.g2, w.fwd); err != nil {
			return err
		}
	}
	scratch, err := w.al.Align(ctx, w.g1, target)
	if err != nil {
		return err
	}
	got := alignmentDigest(w.a)
	if err := sameDigest("maintained vs from-scratch alignment", got, alignmentDigest(scratch)); err != nil {
		return err
	}
	res.header = append(res.header, fmt.Sprintf("v1=%d triples v2=%d triples, δ=%d edits, alignment %v",
		w.g1.NumTriples(), w.g2.NumTriples(), len(w.fwd.Ops), got))
	return nil
}
