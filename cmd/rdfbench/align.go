package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"rdfalign"
)

// alignGtoPdb is the align-gtopdb workload: one Overlap alignment of two
// releases of a relational export whose URIs all carry a per-release
// prefix, so every URI counts as renamed and refinement and overlap
// matching do nearly all the work. It is the one workload on the parallel
// refine and matching paths.
type alignGtoPdb struct {
	al      *rdfalign.Aligner
	workers int
	t1, t2  string // the releases as N-Triples
	truth   *rdfalign.GroundTruth
	g1, g2  *rdfalign.Graph
	public  *rdfalign.Alignment
	traced  *decomposed
	// rounds are the first operation's refinement iterations and overlap
	// rounds; every operation must reproduce them.
	rounds [2]int
}

func runAlign(ctx context.Context, cfg *config) (*result, error) {
	d, err := rdfalign.GenerateGtoPdb(rdfalign.GtoPdbConfig{Versions: 2, Scale: cfg.sizes.gtopdbScale, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	var t [2]string
	for i := range t {
		var b strings.Builder
		if err := rdfalign.WriteNTriples(&b, d.Graphs[i]); err != nil {
			return nil, err
		}
		t[i] = b.String()
	}
	workers := runtime.GOMAXPROCS(0)
	al, err := rdfalign.NewAligner(rdfalign.WithMethod(rdfalign.Overlap), rdfalign.WithParallelism(workers))
	if err != nil {
		return nil, err
	}
	w := &alignGtoPdb{al: al, workers: workers, t1: t[0], t2: t[1], truth: d.GroundTruth(0, 1)}
	return runBatch(ctx, cfg, w)
}

// setup parses both releases.
func (w *alignGtoPdb) setup(ctx context.Context) error {
	var err error
	if w.g1, err = rdfalign.ParseNTriplesString(w.t1, "v1", rdfalign.WithParseWorkers(-1)); err != nil {
		return err
	}
	w.g2, err = rdfalign.ParseNTriplesString(w.t2, "v2", rdfalign.WithParseWorkers(-1))
	return err
}

func (w *alignGtoPdb) op(ctx context.Context, i int, tr *tracer) error {
	if tr != nil {
		var err error
		w.traced, err = alignTraced(ctx, tr, rdfalign.Overlap, w.workers, w.g1, w.g2)
		return err
	}
	a, err := w.al.Align(ctx, w.g1, w.g2)
	if err != nil {
		return err
	}
	w.public = a
	rounds := [2]int{a.RefineIterations(), a.OverlapRounds()}
	if w.rounds == [2]int{} {
		w.rounds = rounds
	} else if rounds != w.rounds {
		return fmt.Errorf("refine iterations and overlap rounds %v, the first operation had %v", rounds, w.rounds)
	}
	return nil
}

// check runs the align gates: the parallel alignment equals the sequential
// one, and on a traced run the traced decomposition equals Aligner.Align.
// A traced run also reports the quality counts against the ground truth.
func (w *alignGtoPdb) check(ctx context.Context, res *result) error {
	seqAl, err := w.al.With(rdfalign.WithParallelism(1))
	if err != nil {
		return err
	}
	seq, err := seqAl.Align(ctx, w.g1, w.g2)
	if err != nil {
		return err
	}
	public := alignmentDigest(w.public)
	if err := sameDigest("parallel vs sequential alignment", public, alignmentDigest(seq)); err != nil {
		return err
	}
	res.header = append(res.header, fmt.Sprintf("releases v1=%d triples v2=%d triples, alignment %v",
		w.g1.NumTriples(), w.g2.NumTriples(), public))
	if w.traced == nil {
		return nil
	}
	if err := sameDigest("traced decomposition vs Aligner.Align", w.traced.digest(), public); err != nil {
		return err
	}
	res.layer["similarity.pairs"] = float64(w.traced.overlap.LiteralPairs + w.traced.overlap.NonLiteralPairs)
	for k, v := range qualityCounts(w.public.Combined(), w.public.Pairs, w.truth) {
		res.layer[k] = v
	}
	return nil
}
