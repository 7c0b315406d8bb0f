package core

import (
	"math/rand"
	"testing"

	"rdfalign/internal/rdf"
)

// refineEngines is the engine matrix the incremental-maintenance tests run
// against: the default outbound recoloring and the extended recolorings,
// which share the worklist loop but widen its frontier.
var refineEngines = []struct {
	name string
	eng  *Engine
}{
	{"worklist", &Engine{}},
	{"in", &Engine{Opt: RefineOptions{Direction: DirIn}}},
	{"both+adaptive", &Engine{Opt: RefineOptions{Direction: DirBoth, Adaptive: true}}},
	{"keys", &Engine{Opt: RefineOptions{Filter: PredicateKeyFilter("u0", "u2")}}},
}

// TestRefineChangedSoundAndExact: RefineChanged returns the same partition
// as Refine bit for bit, and as the full-recolor oracle color for color;
// its change list is sound — every node outside it keeps its input color —
// complete against the strict input/output diff (it may list more: a node
// that changes and reverts stays listed), confined to the recolor set,
// sorted and duplicate-free.
func TestRefineChangedSoundAndExact(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "rc", 3+r.Intn(5), r.Intn(6), 1+r.Intn(3), 5+r.Intn(25))
		// Recolor set: all blanks plus a random sprinkle of URIs, with a
		// duplicate thrown in to exercise deduplication.
		var x []rdf.NodeID
		g.Nodes(func(n rdf.NodeID) {
			if g.IsBlank(n) || r.Intn(3) == 0 {
				x = append(x, n)
			}
		})
		if len(x) > 0 {
			x = append(x, x[0])
		}
		for _, e := range refineEngines {
			in := NewInterner()
			base := LabelPartition(g, in)
			want, wantIters, err := e.eng.Refine(g, base, x)
			if err != nil {
				t.Fatal(err)
			}
			in2 := NewInterner()
			base2 := LabelPartition(g, in2)
			got, gotIters, changed, err := e.eng.RefineChanged(g, base2, x)
			if err != nil {
				t.Fatal(err)
			}
			if wantIters != gotIters {
				t.Fatalf("seed %d %s: iters %d, want %d", seed, e.name, gotIters, wantIters)
			}
			if !samePartition(want, got) {
				t.Fatalf("seed %d %s: RefineChanged partition differs from Refine", seed, e.name)
			}
			oracle, oracleIters, _ := (&fullRecolor{Opt: e.eng.Opt}).Refine(g, LabelPartition(g, NewInterner()), x)
			if oracleIters != gotIters || !samePartition(oracle, got) {
				t.Fatalf("seed %d %s: diverges from the full-recolor oracle (%d vs %d rounds)", seed, e.name, gotIters, oracleIters)
			}
			inX := map[rdf.NodeID]bool{}
			for _, n := range x {
				inX[n] = true
			}
			inChanged := map[rdf.NodeID]bool{}
			for i, n := range changed {
				if i > 0 && changed[i-1] >= n {
					t.Fatalf("seed %d %s: change list not strictly ascending at %d: %v", seed, e.name, i, changed)
				}
				if !inX[n] {
					t.Fatalf("seed %d %s: changed node %d outside the recolor set", seed, e.name, n)
				}
				inChanged[n] = true
			}
			for i := 0; i < g.NumNodes(); i++ {
				n := rdf.NodeID(i)
				if got.Color(n) != base2.Color(n) && !inChanged[n] {
					t.Fatalf("seed %d %s: node %d moved but is missing from the change list", seed, e.name, n)
				}
			}
		}
	}
}

// TestDeblankFrom: DeblankFrom over LabelPartition is Deblank, color for
// color, on every engine configuration.
func TestDeblankFrom(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, "df", 3+r.Intn(5), 1+r.Intn(6), 1+r.Intn(3), 5+r.Intn(25))
		for _, e := range refineEngines {
			in := NewInterner()
			want, wantIters, err := e.eng.Deblank(g, in)
			if err != nil {
				t.Fatal(err)
			}
			in2 := NewInterner()
			got, gotIters, err := e.eng.DeblankFrom(g, LabelPartition(g, in2))
			if err != nil {
				t.Fatal(err)
			}
			if wantIters != gotIters {
				t.Fatalf("seed %d %s: iters %d, want %d", seed, e.name, gotIters, wantIters)
			}
			for n := 0; n < g.NumNodes(); n++ {
				if want.Color(rdf.NodeID(n)) != got.Color(rdf.NodeID(n)) {
					t.Fatalf("seed %d %s: node %d: %d vs %d", seed, e.name, n, got.Color(rdf.NodeID(n)), want.Color(rdf.NodeID(n)))
				}
			}
		}
	}
}
