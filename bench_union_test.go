package rdfalign

// Union-stage benchmark: the disjoint union of the two ingest-stream
// releases (100k triples each) that every alignment of the pair starts
// from, with its first Dependents call, which every refinement of the
// union makes; once with a heap source and once with the source opened
// from a mapped snapshot, which stores its dependents index. The union's
// index concatenates its operands': the heap operands build theirs in the
// first iteration and keep them, as the operands of an archive's
// consecutive unions do, so each timed iteration pays the union's CSR and
// the concatenation. Run it with:
//
//	go test -run '^$' -bench Union -benchtime=20x -count=6 -benchmem .

import "testing"

// unionSink keeps the benchmarked union live.
var unionSink *Combined

func BenchmarkUnion(b *testing.B) {
	sources, target := streamBenchPair(b)
	for _, src := range sources {
		b.Run(src.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				unionSink = Union(src.g, target)
				unionSink.Dependents(0)
			}
		})
	}
}
