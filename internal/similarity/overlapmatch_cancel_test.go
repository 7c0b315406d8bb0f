package similarity

import (
	"context"
	"errors"
	"sync"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// TestOverlapMatchHooksCancellation: the matching scan itself observes a
// cancelled context, so a long verification phase cannot overshoot a
// deadline by more than one source node.
func TestOverlapMatchHooksCancellation(t *testing.T) {
	a := []rdf.NodeID{0, 1}
	b := []rdf.NodeID{2, 3}
	char := func(n rdf.NodeID) []string { return []string{"x"} }
	dist := func(n, m rdf.NodeID) (float64, bool) { return 0, true }

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h, err := OverlapMatch(a, b, 0.5, char, dist, core.Hooks{Ctx: ctx}, 1)
	if h != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("OverlapMatch = %v, %v; want nil, context.Canceled", h, err)
	}

	// Zero hooks: same scan succeeds and finds the pairs.
	h, err = OverlapMatch(a, b, 0.5, char, dist, core.Hooks{}, 1)
	if err != nil || len(h.Edges) != 4 {
		t.Fatalf("uncancelled scan = %v edges, %v; want 4, nil", len(h.Edges), err)
	}
}

// TestOverlapMatchCancelMidNode: cancellation latency is bounded per
// candidate batch, not per source node — a single source node with a huge
// candidate list must stop verifying soon after the context is cancelled
// instead of draining its whole list.
func TestOverlapMatchCancelMidNode(t *testing.T) {
	const candidates = 5000
	const cancelAfter = 5
	a := []rdf.NodeID{0}
	b := make([]rdf.NodeID, candidates)
	for i := range b {
		b[i] = rdf.NodeID(i + 1)
	}
	// Every B node shares the source's only object, so all of B is
	// screened into the verification loop of the one source node.
	char := func(n rdf.NodeID) []string { return []string{"x"} }
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		var mu sync.Mutex
		dist := func(n, m rdf.NodeID) (float64, bool) {
			mu.Lock()
			calls++
			if calls == cancelAfter {
				cancel()
			}
			mu.Unlock()
			return 0, true
		}
		h, err := OverlapMatch(a, b, 0.5, char, dist, core.Hooks{Ctx: ctx}, workers)
		if h != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: = %v, %v; want nil, context.Canceled", workers, h, err)
		}
		// One batch of slack per concurrent scanner, nothing more.
		if limit := cancelAfter + (workers+1)*cancelBatch; calls > limit {
			t.Errorf("workers=%d: dist ran %d times after cancellation (limit %d) — per-node-only check?",
				workers, calls, limit)
		}
		cancel()
	}
}
