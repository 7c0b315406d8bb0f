package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"rdfalign"
)

// BenchmarkServerMatchesOfUnderAlign measures the query path under
// alignment load: MatchesOf relation queries served from the published
// head (through the full handler stack — mux, budget, JSON encoding)
// while full-graph upload jobs keep a 150k-triple alignment running in
// the align pool for the whole measurement. The qps metric is the
// acceptance gauge: queries must sustain >1000 qps because they never
// wait behind the align pool — the budget halves are disjoint and head
// swaps are atomic pointer stores.
func BenchmarkServerMatchesOfUnderAlign(b *testing.B) {
	ctx := context.Background()
	g1 := mustStream(b, rdfalign.StreamConfig{Triples: 150_000, Seed: 1, Version: 1})
	g2 := mustStream(b, rdfalign.StreamConfig{Triples: 150_000, Seed: 1, Version: 2})
	g3 := mustStream(b, rdfalign.StreamConfig{Triples: 150_000, Seed: 1, Version: 3})

	s, err := New(Config{AlignJobs: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	arch, err := s.base.BuildArchive(ctx, []*rdfalign.Graph{g1, g2})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.reg.Create(ctx, "bench", arch, false); err != nil {
		b.Fatal(err)
	}

	// Query keys: URIs of the alignment's source (anchor) graph.
	var uris []string
	g1.Nodes(func(n rdfalign.NodeID) {
		if len(uris) < 4096 && g1.IsURI(n) {
			uris = append(uris, g1.Label(n).Value)
		}
	})
	if len(uris) == 0 {
		b.Fatal("no URIs to query")
	}
	// Warm the head's lazy URI index so the timed region measures steady-
	// state queries (later heads published mid-run warm lazily, as in
	// production).
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/archives/bench/matches?uri="+uris[0], nil))

	// Keep a full alignment running in the align pool throughout: upload
	// jobs re-align a 150k-triple pair back to back.
	stop := make(chan struct{})
	alignDone := make(chan struct{})
	var aligns atomic.Int64
	go func() {
		defer close(alignDone)
		next := []*rdfalign.Graph{g3, g2}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.reg.AppendGraph(ctx, "bench", next[i%len(next)], nil); err != nil {
				b.Error(err)
				return
			}
			aligns.Add(1)
		}
	}()

	b.ResetTimer()
	var idx atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			uri := uris[int(idx.Add(1))%len(uris)]
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest("GET", "/archives/bench/matches?uri="+uri, nil))
			if w.Code != http.StatusOK {
				b.Errorf("matches: %d %s", w.Code, w.Body)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	close(stop)
	<-alignDone
}

// BenchmarkRegistryAppendGraph times one upload job: a 50k-triple release
// appended to a single-version archive of the previous release under
// rdfalignd's default Hybrid session — the pair alignment, the archive
// clone and append, and the head publication. Each iteration starts from a
// freshly registered copy of the one-version archive, outside the timer.
func BenchmarkRegistryAppendGraph(b *testing.B) {
	ctx := context.Background()
	g1 := mustStream(b, rdfalign.StreamConfig{Triples: 50_000, Seed: 1, Version: 1})
	g2 := mustStream(b, rdfalign.StreamConfig{Triples: 50_000, Seed: 1, Version: 2})
	al, err := rdfalign.NewAligner(rdfalign.WithMethod(rdfalign.Hybrid))
	if err != nil {
		b.Fatal(err)
	}
	arch, err := al.BuildArchive(ctx, []*rdfalign.Graph{g1})
	if err != nil {
		b.Fatal(err)
	}
	r := NewRegistry(al)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := r.Create(ctx, "bench", arch.Clone(), true); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := r.AppendGraph(ctx, "bench", g2, nil); err != nil {
			b.Fatal(err)
		}
	}
}
