package rdfalign

// Maintenance benchmarks: ApplyDelta (session maintenance) against a full
// re-alignment on a million-triple stream corpus with a ~0.1% churn edit
// script, and archive AppendVersion against a full Build. Successive
// iterations alternate the delta with its inverse, so every iteration
// applies a real edit of the same size without the graph drifting.
// Regenerate the BENCH_refine.json entries with:
//
//	go test -run '^$' -bench 'ApplyDelta|AppendVersion' -benchtime=3x -count=6 -benchmem .

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

const benchDeltaTriples = 1_000_000

var (
	deltaCorpusOnce sync.Once
	deltaCorpusG    *Graph
	deltaFwd        *EditScript
	deltaBwd        *EditScript
)

// deltaCorpus returns the shared 1M-triple benchmark graph plus the edit
// script to its next version (~0.1% churn, negligible growth) and the
// script's inverse.
func deltaCorpus(b *testing.B) (*Graph, *EditScript, *EditScript) {
	deltaCorpusOnce.Do(func() {
		cfg := StreamConfig{
			Triples: benchDeltaTriples,
			Seed:    1,
			Churn:   0.001,
			// Growth is a factor; barely above 1 so normalise keeps it and
			// the delta stays pure churn instead of 8% growth.
			Growth: 1.0000001,
		}
		var buf bytes.Buffer
		if _, err := StreamNTriples(&buf, cfg); err != nil {
			panic(err)
		}
		g, err := ParseNTriplesString(buf.String(), "bench-v1", WithParseWorkers(8))
		if err != nil {
			panic(err)
		}
		buf.Reset()
		if _, _, err := StreamDelta(&buf, cfg); err != nil {
			panic(err)
		}
		s, err := ParseEditScript(&buf)
		if err != nil {
			panic(err)
		}
		deltaCorpusG, deltaFwd, deltaBwd = g, s, s.Inverse()
	})
	return deltaCorpusG, deltaFwd, deltaBwd
}

// BenchmarkApplyDelta measures one maintained delta application against the
// from-scratch re-alignment of the same post-delta pair (the acceptance
// ratio: maintained must be ≥10× faster). Both sub-benchmarks produce
// identical alignments — the session property tests assert that bitwise.
// overlap-maintained is the maintained step under Overlap, whose
// enrich/propagate rounds run after the hybrid stage.
func BenchmarkApplyDelta(b *testing.B) {
	g, fwd, bwd := deltaCorpus(b)
	ctx := context.Background()

	maintained := func(b *testing.B, m Method) {
		al, err := NewAligner(WithMethod(m))
		if err != nil {
			b.Fatal(err)
		}
		a, err := al.Align(ctx, g, g)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the session to its steady state (the first delta builds the
		// target-graph editor and the union dependents index, both one-time
		// session costs): one forward/backward pair lands back on g.
		for _, s := range []*EditScript{fwd, bwd} {
			if a, err = a.ApplyDelta(ctx, s); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := fwd
			if i%2 == 1 {
				s = bwd
			}
			a, err = a.ApplyDelta(ctx, s)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("maintained", func(b *testing.B) { maintained(b, Hybrid) })
	b.Run("overlap-maintained", func(b *testing.B) { maintained(b, Overlap) })

	b.Run("scratch", func(b *testing.B) {
		al, err := NewAligner(WithMethod(Hybrid))
		if err != nil {
			b.Fatal(err)
		}
		cur := g
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := fwd
			if i%2 == 1 {
				s = bwd
			}
			edited, err := ApplyEditScript(cur, s)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := al.Align(ctx, g, edited); err != nil {
				b.Fatal(err)
			}
			cur = edited
		}
	})
}

// BenchmarkAppendVersion measures extending a three-version archive by one
// version: AppendVersion on a clone (one new alignment) against a full
// four-version Build (three alignments plus re-chaining).
func BenchmarkAppendVersion(b *testing.B) {
	graphs := make([]*Graph, 4)
	for v := 1; v <= 4; v++ {
		var buf bytes.Buffer
		if _, err := StreamNTriples(&buf, StreamConfig{Triples: 60_000, Version: v, Seed: 2}); err != nil {
			b.Fatal(err)
		}
		g, err := ParseNTriplesString(buf.String(), "v", WithParseWorkers(8))
		if err != nil {
			b.Fatal(err)
		}
		graphs[v-1] = g
	}
	ctx := context.Background()
	al, err := NewAligner()
	if err != nil {
		b.Fatal(err)
	}
	base, err := al.BuildArchive(ctx, graphs[:3])
	if err != nil {
		b.Fatal(err)
	}

	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := al.AppendVersion(ctx, base.Clone(), graphs[3], nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := al.BuildArchive(ctx, graphs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
