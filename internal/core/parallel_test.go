package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

// Refinement is sequential; Engine.Workers is deprecated and ignored. The
// tests below pin that a caller still setting it gets exactly the
// sequential coloring.

// TestParallelIdenticalToSequential: an engine with Workers set produces the
// exact same coloring (not merely an equivalent partition) and iteration
// count as the default engine.
func TestParallelIdenticalToSequential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "par", 3+r.Intn(5), r.Intn(6), 1+r.Intn(3), 5+r.Intn(25))
		in1 := NewInterner()
		p1, it1, _ := (&Engine{}).Bisim(g, in1)
		in2 := NewInterner()
		p2, it2, err := (&Engine{Workers: 4}).Bisim(g, in2)
		if err != nil {
			t.Fatal(err)
		}
		if it1 != it2 {
			return false
		}
		for i := 0; i < p1.Len(); i++ {
			if p1.Color(rdf.NodeID(i)) != p2.Color(rdf.NodeID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestHybridParallelEquivalent: the full hybrid pipeline agrees with and
// without Workers on a generated 400-row dataset pair.
func TestHybridParallelEquivalent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	mk := func(name string) *rdf.Graph {
		b := rdf.NewBuilder(name)
		var rows []rdf.NodeID
		for i := 0; i < 400; i++ {
			row := b.URI(name + "/row" + string(rune('A'+i%26)) + itoa(i))
			rows = append(rows, row)
			b.TripleURI(row, name+"/p", b.Literal("value "+itoa(i%97)))
			if i > 0 {
				b.TripleURI(row, name+"/ref", rows[r.Intn(i)])
			}
		}
		return b.MustGraph()
	}
	g1 := mk("http://a")
	g2 := mk("http://b")
	c := rdf.Union(g1, g2)
	seqP, _, _ := (&Engine{}).Hybrid(c, NewInterner())
	parP, _, err := (&Engine{Workers: 4}).Hybrid(c, NewInterner())
	if err != nil {
		t.Fatal(err)
	}
	if !samePartition(seqP, parP) {
		t.Error("hybrid with Workers set diverged from sequential")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// The refinement benches run on two shapes: "deep" (small node set, many
// iterations — per-iteration overhead dominates) and "wide" (large node
// set, few iterations — the gather phase dominates).

func BenchmarkRefineSequentialDeep(b *testing.B) {
	benchRefine(b, benchChainGraph())
}

func BenchmarkRefineSequentialWide(b *testing.B) {
	benchRefine(b, benchWideGraph())
}

func benchRefine(b *testing.B, g *rdf.Graph) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	e := &Engine{}
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Bisim(g, NewInterner()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChainGraph builds a graph with deep refinement (many iterations over
// a small node set).
func benchChainGraph() *rdf.Graph {
	b := rdf.NewBuilder("bench-deep")
	p := b.URI("p")
	var prev []rdf.NodeID
	for i := 0; i < 40; i++ {
		prev = append(prev, b.Literal("leaf"+itoa(i)))
	}
	for depth := 0; depth < 30; depth++ {
		var next []rdf.NodeID
		for i := 0; i < 40; i++ {
			n := b.FreshBlank()
			b.Triple(n, p, prev[i])
			b.Triple(n, p, prev[(i+1)%len(prev)])
			next = append(next, n)
		}
		prev = next
	}
	return b.MustGraph()
}

// benchWideGraph builds a large, shallow graph: 60k nodes with fan-out 4
// and depth ~4, so refinement converges in a handful of iterations over a
// big node set.
func benchWideGraph() *rdf.Graph {
	b := rdf.NewBuilder("bench-wide")
	p := b.URI("p")
	q := b.URI("q")
	var layer []rdf.NodeID
	for i := 0; i < 200; i++ {
		layer = append(layer, b.Literal("leaf"+itoa(i)))
	}
	for depth := 0; depth < 4; depth++ {
		var next []rdf.NodeID
		for i := 0; i < 15000; i++ {
			n := b.FreshBlank()
			b.Triple(n, p, layer[i%len(layer)])
			b.Triple(n, q, layer[(i*7+depth)%len(layer)])
			next = append(next, n)
		}
		layer = next
	}
	return b.MustGraph()
}
