package rdfalign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
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

// TestQueriesDuringApplyDelta queries the previous alignment — Pairs,
// Unaligned, MatchesOf — from other goroutines while ApplyDelta advances
// the lineage: the stale alignment keeps answering as before, and (under
// -race) nothing it reads is written by the maintenance run.
func TestQueriesDuringApplyDelta(t *testing.T) {
	g1, g2, fwd := churnPair(t, 1000, 0.05)
	bwd := fwd.Inverse()
	al, err := NewAligner(WithMethod(Overlap))
	if err != nil {
		t.Fatal(err)
	}
	a, err := al.Align(context.Background(), g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	type answers struct {
		pairs        [][2]NodeID
		unSrc, unTgt []NodeID
		matches      [][]NodeID
	}
	query := func(a *Alignment) answers {
		var ans answers
		a.Pairs(func(n1, n2 NodeID) { ans.pairs = append(ans.pairs, [2]NodeID{n1, n2}) })
		ans.unSrc, ans.unTgt = a.Unaligned()
		for n := 0; n < a.Source().NumNodes(); n += 7 {
			ans.matches = append(ans.matches, a.MatchesOf(NodeID(n)))
		}
		return ans
	}
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
