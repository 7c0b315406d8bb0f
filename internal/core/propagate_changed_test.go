package core

import (
	"math/rand"
	"testing"

	"rdfalign/internal/rdf"
)

// TestPropagateChangedSoundAndExact: Propagate returns the same ξ and
// round count as the full-recolor oracle bit for bit, and its change list
// is sound — every node outside it keeps its input color and weight —
// complete against the strict input/output diff, confined to the recolor
// set, sorted and duplicate-free. Exercised unbounded and depth-bounded.
func TestPropagateChangedSoundAndExact(t *testing.T) {
	engines := []struct {
		name string
		eng  *Engine
	}{
		{"worklist", &Engine{}},
		{"k=2", &Engine{MaxDepth: 2}},
	}
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		in := NewInterner()
		hp, _, _ := (&Engine{}).Hybrid(c, in)
		base := NewWeighted(hp)
		// Random non-trivial starting weights on a few nodes, so weight
		// changes flow through the tracker too.
		for i := 0; i < base.P.Len(); i += 3 {
			base.W[i] = float64(r.Intn(10)) / 20
		}
		for _, e := range engines {
			want, got := base.Clone(), base.Clone()
			wantIters, _, _ := (&fullRecolor{MaxDepth: e.eng.MaxDepth}).Propagate(c, want, 0)
			gotIters, changed, err := e.eng.Propagate(c, got, 0)
			if err != nil {
				t.Fatal(err)
			}
			if wantIters != gotIters {
				t.Fatalf("seed %d %s: iters %d, want %d", seed, e.name, gotIters, wantIters)
			}
			un := map[rdf.NodeID]bool{}
			for _, n := range UnalignedNonLiterals(c, base.P) {
				un[n] = true
			}
			inChanged := map[rdf.NodeID]bool{}
			for i, n := range changed {
				if i > 0 && changed[i-1] >= n {
					t.Fatalf("seed %d %s: change list not strictly ascending at %d: %v", seed, e.name, i, changed)
				}
				if !un[n] {
					t.Fatalf("seed %d %s: changed node %d outside the recolor set", seed, e.name, n)
				}
				inChanged[n] = true
			}
			for i := 0; i < c.NumNodes(); i++ {
				n := rdf.NodeID(i)
				if want.P.Color(n) != got.P.Color(n) || want.W[n] != got.W[n] {
					t.Fatalf("seed %d %s: node %d diverges from the full-recolor oracle: (%d, %v) vs (%d, %v)",
						seed, e.name, n, got.P.Color(n), got.W[n], want.P.Color(n), want.W[n])
				}
				moved := got.P.Color(n) != base.P.Color(n) || got.W[n] != base.W[n]
				if moved && !inChanged[n] {
					t.Fatalf("seed %d %s: node %d moved but is missing from the change list", seed, e.name, n)
				}
			}
		}
	}
}
