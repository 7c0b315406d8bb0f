package rdfalign

// Label-stage benchmark: the label partition the alignment pipeline
// computes over the union of two consecutive stream releases (the
// ingest-stream pair, 100k triples each), once with a heap source and once
// with the source opened from a mapped snapshot, whose label strings alias
// the mapping. Each iteration starts from a fresh interner, as Align does.
// Regenerate the BENCH_refine.json entry with:
//
//	go test -run '^$' -bench LabelPartition -benchtime=20x -count=6 -benchmem .

import (
	"bytes"
	"path/filepath"
	"testing"

	"rdfalign/internal/core"
)

// streamBenchPair parses the two ingest-stream releases and opens the
// first again from a mapped snapshot. It returns the heap and the mapped
// source, and the target release.
func streamBenchPair(b *testing.B) (sources []benchSource, target *Graph) {
	var releases [2]*Graph
	for v := range releases {
		var buf bytes.Buffer
		if _, err := StreamNTriples(&buf, StreamConfig{Triples: 100_000, Version: v + 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		g, err := ParseNTriplesString(buf.String(), "v", WithParseWorkers(-1))
		if err != nil {
			b.Fatal(err)
		}
		releases[v] = g
	}
	path := filepath.Join(b.TempDir(), "v1.snap")
	if err := WriteGraphSnapshotMappedFile(path, releases[0]); err != nil {
		b.Fatal(err)
	}
	mapped, err := OpenGraphSnapshotMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { mapped.Close() })
	return []benchSource{{"heap", releases[0]}, {"mapped", mapped}}, releases[1]
}

type benchSource struct {
	name string
	g    *Graph
}

func BenchmarkLabelPartition(b *testing.B) {
	sources, target := streamBenchPair(b)
	for _, src := range sources {
		c := Union(src.g, target)
		b.Run(src.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.LabelPartition(c.Graph, core.NewInterner())
			}
		})
	}
}
