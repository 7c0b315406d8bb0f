package rdfalign

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// chainNT builds an N-Triples document whose blank nodes form a chain of
// the given depth ending in a URI — the deepest possible deblank fixpoint,
// where every depth bound below the chain length is observable.
func chainNT(depth int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "_:b0 <http://x/p> <http://x/end> .\n")
	for i := 1; i < depth; i++ {
		fmt.Fprintf(&sb, "_:b%d <http://x/p> _:b%d .\n", i, i-1)
	}
	return sb.String()
}

// TestWithMaxDepthValidation: the depth bound is validated at construction,
// reported by the accessor, and defaults to 0 (exact).
func TestWithMaxDepthValidation(t *testing.T) {
	if _, err := NewAligner(WithMaxDepth(-1)); err == nil {
		t.Error("max depth -1 accepted")
	} else if want := "outside [0, ∞)"; !strings.Contains(err.Error(), want) {
		t.Errorf("max depth -1 error %q does not name the accepted range %q", err, want)
	}
	al, err := NewAligner()
	if err != nil {
		t.Fatal(err)
	}
	if al.MaxDepth() != 0 {
		t.Errorf("default MaxDepth = %d, want 0", al.MaxDepth())
	}
	bounded, err := al.With(WithMaxDepth(3))
	if err != nil {
		t.Fatal(err)
	}
	if bounded.MaxDepth() != 3 {
		t.Errorf("derived MaxDepth = %d, want 3", bounded.MaxDepth())
	}
	if al.MaxDepth() != 0 {
		t.Error("With mutated the base aligner's depth bound")
	}
}

// TestMaxDepthBoundsAlignment: on a deep blank chain a small bound leaves
// depth-indistinguishable blanks ambiguously aligned (more pairs than the
// exact 1-to-1 alignment), while a bound beyond the fixpoint depth is
// byte-identical to exact.
func TestMaxDepthBoundsAlignment(t *testing.T) {
	g1, err := ParseNTriplesString(chainNT(12), "src")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseNTriplesString(chainNT(12), "tgt")
	if err != nil {
		t.Fatal(err)
	}
	align := func(k int) *Alignment {
		al, err := NewAligner(WithMethod(Deblank), WithMaxDepth(k))
		if err != nil {
			t.Fatal(err)
		}
		a, err := al.Align(context.Background(), g1, g2)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	exact, k1, deep := pairSet(align(0)), pairSet(align(1)), pairSet(align(1000))
	if len(k1) <= len(exact) {
		t.Errorf("k=1 alignment has %d pairs, exact %d: the bound did not coarsen the chain", len(k1), len(exact))
	}
	if len(deep) != len(exact) {
		t.Errorf("k=1000 alignment has %d pairs, exact %d: a bound past the fixpoint must change nothing", len(deep), len(exact))
	}
	for p := range exact {
		if !deep[p] {
			t.Fatal("k=1000 alignment lost an exact pair")
		}
	}
}

// TestApplyDeltaBoundedDepth extends the maintenance acceptance property to
// bounded depth: for every method and bound, chained k-bounded ApplyDelta
// calls produce exactly the alignment a from-scratch k-bounded Align of the
// edited target produces.
func TestApplyDeltaBoundedDepth(t *testing.T) {
	methods := []Method{Deblank, Hybrid, Overlap, SigmaEdit}
	for _, k := range []int{1, 2, 3} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(1000*int64(k) + seed))
			g1 := randomSessionGraph(rng, "g1")
			g2 := randomSessionGraph(rng, "g2")
			for _, m := range methods {
				al, err := NewAligner(WithMethod(m), WithMaxDepth(k))
				if err != nil {
					t.Fatal(err)
				}
				a, err := al.Align(context.Background(), g1, g2)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 2; step++ {
					kind := (int(seed) + step) % 3
					s := randomScript(rng, a.Target(), kind, fmt.Sprintf("d%d-%d-%d-%d", k, seed, m, step))
					a2, err := al.ApplyDelta(context.Background(), a, s)
					if err != nil {
						t.Fatalf("k=%d seed %d %v step %d: ApplyDelta: %v", k, seed, m, step, err)
					}
					scratch, err := al.Align(context.Background(), g1, a2.Target())
					if err != nil {
						t.Fatal(err)
					}
					requireSameAlignment(t, fmt.Sprintf("k=%d seed %d method %v step %d kind %d", k, seed, m, step, kind), a2, scratch)
					a = a2
				}
			}
		}
	}
}

// TestMaxDepthBoundsArchive: BuildArchive and AppendVersion honour
// WithMaxDepth. On blank chains a one-round bound leaves the chain blanks
// in one ambiguous class, so they stop chaining into the same entities and
// the archive differs from the exact one; a bound at or above the exact
// round count reproduces the exact archive.
func TestMaxDepthBoundsArchive(t *testing.T) {
	var graphs []*Graph
	for i, doc := range []string{chainNT(12), chainNT(12) + "<http://x/a> <http://x/p> \"v\" .\n", chainNT(13)} {
		g, err := ParseNTriplesString(doc, fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	ctx := context.Background()
	for _, m := range []Method{Hybrid, Overlap} {
		exactRounds := 0
		for v := 0; v+1 < len(graphs); v++ {
			a, err := alignWith(graphs[v], graphs[v+1], WithMethod(m))
			if err != nil {
				t.Fatal(err)
			}
			exactRounds = max(exactRounds, a.RefineIterations())
		}
		build := func(k int) *Archive {
			al, err := NewAligner(WithMethod(m), WithMaxDepth(k))
			if err != nil {
				t.Fatal(err)
			}
			a, err := al.BuildArchive(ctx, graphs[:2])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := al.AppendVersion(ctx, a, graphs[2], nil); err != nil {
				t.Fatal(err)
			}
			return a
		}
		exact := build(0)
		if reflect.DeepEqual(build(1).Raw(), exact.Raw()) {
			t.Errorf("%v: the k=1 archive equals the exact one", m)
		}
		for _, k := range []int{exactRounds, exactRounds + 1, 1000} {
			if !reflect.DeepEqual(build(k).Raw(), exact.Raw()) {
				t.Errorf("%v: the k=%d archive differs from the exact one (exact rounds %d)", m, k, exactRounds)
			}
		}
	}
}
