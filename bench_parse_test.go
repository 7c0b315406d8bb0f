package rdfalign

// Ingestion benchmarks: streaming-parser and writer throughput on a
// million-triple DBpedia-like corpus (generated in memory by the
// streaming dataset generator), parser throughput on one GtoPdb release
// (the IRI-heavy document align-gtopdb parses in its set-up; also read as
// Turtle, of which N-Triples is a subset), plus an
// end-to-end parse→align workload. The parallel configurations are
// bit-identical to the sequential ones by construction; the speedup
// scales with available cores (on a single-core machine seq and par8
// coincide). Regenerate the BENCH_refine.json entries with:
//
//	go test -run '^$' -bench 'Parse|WriteNT' -benchtime=3x -count=6 -benchmem .

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"
)

const (
	benchParseTriples    = 1_000_000
	benchEndToEndTriples = 150_000
)

var (
	parseCorpusOnce sync.Once
	parseCorpus     string

	gtopdbCorpusOnce sync.Once
	gtopdbCorpus     string
)

// corpus returns the shared ~1M-triple benchmark document (~90 MB),
// generated once across all parse benchmarks.
func corpus() string {
	parseCorpusOnce.Do(func() {
		var buf bytes.Buffer
		if _, err := StreamNTriples(&buf, StreamConfig{Triples: benchParseTriples, Seed: 1}); err != nil {
			panic(err)
		}
		parseCorpus = buf.String()
	})
	return parseCorpus
}

// gtopdbDoc returns one GtoPdb release at scale 0.2 (~147k triples) as
// N-Triples: align-gtopdb's set-up input. Its long, mostly distinct IRIs
// weigh the lexer more than the dictionary-bound stream corpus does.
func gtopdbDoc() string {
	gtopdbCorpusOnce.Do(func() {
		d, err := GenerateGtoPdb(GtoPdbConfig{Versions: 1, Scale: 0.2})
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, d.Graphs[0]); err != nil {
			panic(err)
		}
		gtopdbCorpus = buf.String()
	})
	return gtopdbCorpus
}

func benchParse(b *testing.B, doc string, opts ...ParseOption) {
	benchParseWith(b, doc, func(doc string) (*Graph, error) { return ParseNTriplesString(doc, "bench", opts...) })
}

func benchParseWith(b *testing.B, doc string, parse func(string) (*Graph, error)) {
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := parse(doc)
		if err != nil {
			b.Fatal(err)
		}
		if g.NumTriples() == 0 {
			b.Fatal("empty parse")
		}
	}
}

func BenchmarkParseNTriples(b *testing.B) {
	b.Run("seq", func(b *testing.B) { benchParse(b, corpus()) })
	b.Run("par8", func(b *testing.B) { benchParse(b, corpus(), WithParseWorkers(8)) })
	b.Run("gtopdb-seq", func(b *testing.B) { benchParse(b, gtopdbDoc()) })
	b.Run("gtopdb-par", func(b *testing.B) { benchParse(b, gtopdbDoc(), WithParseWorkers(-1)) })
	// The same document through the Turtle reader, which shares the
	// N-Triples term lexer.
	b.Run("gtopdb-turtle", func(b *testing.B) {
		benchParseWith(b, gtopdbDoc(), func(doc string) (*Graph, error) { return ParseTurtleString(doc, "bench") })
	})
}

func BenchmarkWriteNTriples(b *testing.B) {
	g, err := ParseNTriplesString(corpus(), "bench", WithParseWorkers(8))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, opts ...WriteOption) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := WriteNTriples(io.Discard, g, opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seq", func(b *testing.B) { run(b) })
	b.Run("par8", func(b *testing.B) { run(b, WithWriteWorkers(8)) })
}

// BenchmarkEndToEndParseAlign measures the full ingestion-to-alignment
// path on two consecutive stream versions: parse both documents with the
// parallel pipeline and align them with the deblank method.
func BenchmarkEndToEndParseAlign(b *testing.B) {
	docs := make([]string, 2)
	for v := 1; v <= 2; v++ {
		var buf bytes.Buffer
		if _, err := StreamNTriples(&buf, StreamConfig{
			Triples: benchEndToEndTriples, Version: v, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
		docs[v-1] = buf.String()
	}
	al, err := NewAligner(WithMethod(Deblank))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g1, err := ParseNTriplesString(docs[0], "v1", WithParseWorkers(8))
		if err != nil {
			b.Fatal(err)
		}
		g2, err := ParseNTriplesString(docs[1], "v2", WithParseWorkers(8))
		if err != nil {
			b.Fatal(err)
		}
		a, err := al.Align(context.Background(), g1, g2)
		if err != nil {
			b.Fatal(err)
		}
		if a.AlignedEntityCount(true) == 0 {
			b.Fatal("nothing aligned")
		}
	}
}
