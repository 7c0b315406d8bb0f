package rdfalign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rdfalign/internal/rdf"
)

// churnPair generates two releases of the stream corpus and the edit script
// between the second and the third.
func churnPair(t *testing.T, triples int, churn float64) (g1, g2 *Graph, fwd *EditScript) {
	t.Helper()
	cfg := StreamConfig{Triples: triples, Seed: 3, Churn: churn, Growth: 1.0000001}
	var v1, v2, d bytes.Buffer
	if _, err := StreamNTriples(&v1, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Version = 2
	if _, err := StreamNTriples(&v2, cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := StreamDelta(&d, cfg); err != nil {
		t.Fatal(err)
	}
	var err error
	if g1, err = ParseNTriplesString(v1.String(), "v1"); err != nil {
		t.Fatal(err)
	}
	if g2, err = ParseNTriplesString(v2.String(), "v2"); err != nil {
		t.Fatal(err)
	}
	if fwd, err = ParseEditScript(&d); err != nil {
		t.Fatal(err)
	}
	return g1, g2, fwd
}

// TestApplyDeltaForwardStream applies a forward chain of stream-corpus
// releases, v2→v3→…→v10, to one session: unlike a delta followed by its
// inverse, each delta touches new subjects, so the graphs' edge overlays
// grow until the dense rule folds them (at 0.3% churn on 3,000 triples the
// chain folds twice per method, while no single delta is dense enough to
// be rebuilt). Every version must equal a from-scratch Align.
func TestApplyDeltaForwardStream(t *testing.T) {
	cfg := StreamConfig{Triples: 3000, Seed: 5, Churn: 0.003, Growth: 1.0000001}
	parse := func(version int) *Graph {
		c := cfg
		c.Version = version
		var buf bytes.Buffer
		if _, err := StreamNTriples(&buf, c); err != nil {
			t.Fatal(err)
		}
		g, err := ParseNTriplesString(buf.String(), fmt.Sprintf("v%d", version))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g1, g2 := parse(1), parse(2)
	ctx := context.Background()
	for _, m := range []Method{Hybrid, Overlap} {
		al, err := NewAligner(WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		a, err := al.Align(ctx, g1, g2)
		if err != nil {
			t.Fatal(err)
		}
		for v := 2; v < 10; v++ {
			c := cfg
			c.Version = v
			var buf bytes.Buffer
			if _, _, err := StreamDelta(&buf, c); err != nil {
				t.Fatal(err)
			}
			s, err := ParseEditScript(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if a, err = a.ApplyDelta(ctx, s); err != nil {
				t.Fatalf("%v: delta v%d→v%d: %v", m, v, v+1, err)
			}
			scratch, err := al.Align(ctx, g1, a.Target())
			if err != nil {
				t.Fatal(err)
			}
			requireSameAlignment(t, fmt.Sprintf("%v, v%d", m, v+1), a, scratch)
		}
	}
}

// TestApplyDeltaCancelAtEachPropagateRound cancels an Overlap ApplyDelta
// from the progress callback at its first, second, … propagation round
// until one attempt runs to completion. Each cancelled attempt drops the
// session's refinement workspace mid-run; the completing attempt and the
// 50 alternating δ/δ⁻¹ steps after it must each equal a from-scratch Align.
func TestApplyDeltaCancelAtEachPropagateRound(t *testing.T) {
	g1, g2, fwd := churnPair(t, 2000, 0.05)
	bwd := fwd.Inverse()
	var cancel context.CancelFunc
	cancelAt, seen := 0, 0
	al, err := NewAligner(WithMethod(Overlap), WithProgress(func(p Progress) {
		if p.Stage == "propagate" {
			if seen++; seen == cancelAt {
				cancel()
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	a, err := al.Align(context.Background(), g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	var a2 *Alignment
	for cancelAt = 1; a2 == nil; cancelAt++ {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		seen = 0
		a2, err = al.ApplyDelta(ctx, a, fwd)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at propagation round %d: %v", cancelAt, err)
		}
	}
	if cancelAt <= 2 {
		t.Fatal("the delta reported no propagation round to cancel at")
	}
	cancelAt = 0
	a = a2
	for step := 0; step <= 50; step++ {
		if step > 0 {
			s := bwd
			if step%2 == 0 {
				s = fwd
			}
			if a, err = a.ApplyDelta(context.Background(), s); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		scratch, err := al.Align(context.Background(), g1, a.Target())
		if err != nil {
			t.Fatal(err)
		}
		requireSameAlignment(t, fmt.Sprintf("step %d", step), a, scratch)
	}
}

// alignmentAnswers is what a query client reads off an alignment: its
// pairs, unaligned sets, the matches of every 7th source node and the
// distances of every 5th pair — the last read the weights of the final ξ.
type alignmentAnswers struct {
	pairs        [][2]NodeID
	unSrc, unTgt []NodeID
	matches      [][]NodeID
	dist         []float64
}

func queryAlignment(a *Alignment) alignmentAnswers {
	var ans alignmentAnswers
	a.Pairs(func(n1, n2 NodeID) { ans.pairs = append(ans.pairs, [2]NodeID{n1, n2}) })
	ans.unSrc, ans.unTgt = a.Unaligned()
	for n := 0; n < a.Source().NumNodes(); n += 7 {
		ans.matches = append(ans.matches, a.MatchesOf(NodeID(n)))
	}
	for i := 0; i < len(ans.pairs); i += 5 {
		ans.dist = append(ans.dist, a.Distance(ans.pairs[i][0], ans.pairs[i][1]))
	}
	return ans
}

// TestQueriesDuringApplyDelta queries the previous alignment — Pairs,
// Unaligned, MatchesOf, Distance — from other goroutines while ApplyDelta
// advances the lineage: the stale alignment keeps answering as before, and
// (under -race) nothing it reads, its colors and weights included, is
// written by the maintenance run.
func TestQueriesDuringApplyDelta(t *testing.T) {
	g1, g2, fwd := churnPair(t, 1000, 0.05)
	g1 = withEditedLiterals(t, g1, 9) // weighted pairs for Distance to read
	bwd := fwd.Inverse()
	al, err := NewAligner(WithMethod(Overlap))
	if err != nil {
		t.Fatal(err)
	}
	a, err := al.Align(context.Background(), g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	query := queryAlignment
	for step := 0; step < 6; step++ {
		prev, want := a, query(a)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for q := 0; q < 2; q++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if got := query(prev); !reflect.DeepEqual(got, want) {
						t.Errorf("step %d: a stale alignment's answers changed during ApplyDelta", step)
						return
					}
					select {
					case <-done:
						return
					default:
					}
				}
			}()
		}
		s := fwd
		if step%2 == 1 {
			s = bwd
		}
		a, err = prev.ApplyDelta(context.Background(), s)
		close(done)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// withEditedLiterals returns g with the literal object of every k-th
// blank-free triple rewritten into a near variant, written out and parsed
// back so that the old literal nodes are gone: Overlap then aligns each
// edited literal with its original as a weighted pair.
func withEditedLiterals(t *testing.T, g *Graph, k int) *Graph {
	t.Helper()
	term := func(n NodeID) rdf.Term {
		l := g.Label(n)
		return rdf.Term{Kind: l.Kind, Value: l.Value}
	}
	s := &EditScript{}
	for i, tr := range g.Triples() {
		if i%k != 0 || !g.IsLiteral(tr.O) || g.IsBlank(tr.S) {
			continue
		}
		old := rdf.TermTriple{S: term(tr.S), P: term(tr.P), O: term(tr.O)}
		edited := old
		edited.O.Value += " v2"
		s.Ops = append(s.Ops, rdf.EditOp{T: old}, rdf.EditOp{Insert: true, T: edited})
	}
	edited, err := ApplyEditScript(g, s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, edited); err != nil {
		t.Fatal(err)
	}
	out, err := ParseNTriplesString(buf.String(), g.Name()+"-edited")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCancelledOverlapDeltaKeepsPrevious cancels an Overlap ApplyDelta at
// each of its propagation rounds in turn. Every round of the cancelled run
// writes into the run's own ξ, never into the previous version's: after
// each attempt the previous alignment's pairs, matches and distances —
// weighted ones among them — are what they were before, and it still
// advances to a from-scratch result.
func TestCancelledOverlapDeltaKeepsPrevious(t *testing.T) {
	g1, g2, fwd := churnPair(t, 1000, 0.05)
	g1 = withEditedLiterals(t, g1, 9)
	var cancel context.CancelFunc
	cancelAt, seen := 0, 0
	al, err := NewAligner(WithMethod(Overlap), WithProgress(func(p Progress) {
		if p.Stage == "propagate" {
			if seen++; seen == cancelAt {
				cancel()
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	a, err := al.Align(context.Background(), g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	// Advance once so the lineage holds a workspace and matcher state, and
	// its newest ξ carries enrichment weights.
	if a, err = a.ApplyDelta(context.Background(), fwd); err != nil {
		t.Fatal(err)
	}
	want := queryAlignment(a)
	if !slices.ContainsFunc(want.dist, func(d float64) bool { return d > 0 }) {
		t.Fatal("no weighted pair among the sampled distances")
	}
	bwd := fwd.Inverse()
	var a2 *Alignment
	for cancelAt = 1; a2 == nil; cancelAt++ {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		seen = 0
		a2, err = al.ApplyDelta(ctx, a, bwd)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at propagation round %d: %v", cancelAt, err)
		}
		if got := queryAlignment(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("cancel at propagation round %d changed the previous alignment's answers", cancelAt)
		}
	}
	if cancelAt <= 2 {
		t.Fatal("the delta reported no propagation round to cancel at")
	}
	scratch, err := al.Align(context.Background(), g1, a2.Target())
	if err != nil {
		t.Fatal(err)
	}
	requireSameAlignment(t, "after the cancelled attempts", a2, scratch)
}
