package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// workerCounts covers the inline path, more workers than cores on small
// boxes, and the largest count the tests use.
var workerCounts = []int{-1, 0, 1, 2, 3, 8}

// counter yields 0, 1, …, n-1.
func counter(n int) func() (int, bool) {
	i := 0
	return func() (int, bool) {
		if i == n {
			return 0, false
		}
		i++
		return i - 1, true
	}
}

// scrambled is a per-item latency that makes later items finish before
// earlier ones.
func scrambled(i int) time.Duration {
	return time.Duration((i*7919)%13) * 20 * time.Microsecond
}

type slot struct {
	item int
	sq   int
	err  error
}

func TestOrderedResultsInItemOrder(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			const n = 300
			busy := make([]atomic.Bool, max(workers, 1))
			slots := map[*slot]bool{}
			var got []int
			err := Ordered(workers, counter(n), func(w int, i int, r *slot) {
				if w < 0 || w >= len(busy) {
					t.Errorf("worker index %d outside [0, %d)", w, len(busy))
					return
				}
				if busy[w].Swap(true) {
					t.Errorf("worker %d runs two items at once", w)
				}
				time.Sleep(scrambled(i))
				r.item, r.sq = i, i*i
				busy[w].Store(false)
			}, func(r *slot) error {
				slots[r] = true
				if r.sq != r.item*r.item {
					t.Errorf("slot holds %d for item %d", r.sq, r.item)
				}
				got = append(got, r.item)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("done saw item %d at position %d: %v", v, i, got)
				}
			}
			if len(got) != n {
				t.Fatalf("done saw %d items, want %d", len(got), n)
			}
			if bound := max(2*workers+4, 1); workers <= 1 && len(slots) != 1 || len(slots) > bound {
				t.Errorf("%d distinct result slots, want at most %d (1 inline)", len(slots), bound)
			}
		})
	}
}

func TestOrderedFirstErrorWins(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			const n, first, later = 200, 10, 12
			var claimed, committed atomic.Int64
			var failed atomic.Bool
			next := counter(n)
			err := Ordered(workers, func() (int, bool) {
				i, ok := next()
				if ok {
					claimed.Add(1)
				}
				return i, ok
			}, func(_ int, i int, r *slot) {
				r.item, r.err = i, nil
				switch i {
				case first:
					// The earlier failure is the slow one, so a later item
					// fails first in wall-clock time.
					time.Sleep(20 * time.Millisecond)
					r.err = fmt.Errorf("item %d", i)
				case later:
					r.err = fmt.Errorf("item %d", i)
				}
			}, func(r *slot) error {
				if failed.Load() {
					t.Errorf("done called for item %d after an error", r.item)
				}
				if r.err != nil {
					failed.Store(true)
					return r.err
				}
				committed.Add(1)
				return nil
			})
			if err == nil || err.Error() != fmt.Sprintf("item %d", first) {
				t.Fatalf("err = %v, want item %d", err, first)
			}
			if c := committed.Load(); c != first {
				t.Errorf("%d items committed before the error, want %d", c, first)
			}
			// Claims stop at the error: the window caps the run-ahead, and
			// each worker claims at most one item while the error lands.
			if c, limit := claimed.Load(), int64(first+2*max(workers, 1)+4+workers); c > limit {
				t.Errorf("%d items claimed, want at most %d", c, limit)
			}
		})
	}
}

func TestOrderedBoundsClaimedItems(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			bound := int64(2*workers + 4)
			if workers <= 1 {
				bound = 1
			}
			var inflight, peak atomic.Int64
			next := counter(400)
			err := Ordered(workers, func() (int, bool) {
				i, ok := next()
				if ok {
					now := inflight.Add(1)
					for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
					}
				}
				return i, ok
			}, func(_ int, i int, r *slot) {
				// Every 50th item is slow, so the others run ahead of the
				// commit frontier until the bound stops them.
				if i%50 == 0 {
					time.Sleep(5 * time.Millisecond)
				}
				r.item = i
			}, func(*slot) error {
				inflight.Add(-1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if p := peak.Load(); p > bound {
				t.Errorf("%d items claimed but uncommitted, bound %d", p, bound)
			}
		})
	}
}

// settledGoroutines waits for the goroutine count to drop to want and
// returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

func TestOrderedLeavesNoGoroutine(t *testing.T) {
	fail := errors.New("fail")
	cases := []struct {
		name  string
		items int
		errAt int // -1: no error
	}{
		{"success", 100, -1},
		{"error", 100, 7},
		{"zero items", 0, -1},
		{"more workers than items", 3, -1},
		{"error on first item", 3, 0},
	}
	for _, c := range cases {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/%d", c.name, workers), func(t *testing.T) {
				before := runtime.NumGoroutine()
				err := Ordered(workers, counter(c.items), func(_ int, i int, r *slot) {
					time.Sleep(scrambled(i))
					r.item = i
				}, func(r *slot) error {
					if r.item == c.errAt {
						return fail
					}
					return nil
				})
				if (c.errAt >= 0) != (err != nil) {
					t.Fatalf("err = %v", err)
				}
				if n := settledGoroutines(before); n > before {
					t.Errorf("%d goroutines after Ordered returned, %d before", n, before)
				}
			})
		}
	}
}

func TestOrderedInlineStartsNoGoroutine(t *testing.T) {
	for _, workers := range []int{-1, 0, 1} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			var mu sync.Mutex
			seen := 0
			check := func(where string) {
				mu.Lock()
				defer mu.Unlock()
				if n := runtime.NumGoroutine(); n != before {
					t.Errorf("%s: %d goroutines running, %d before Ordered", where, n, before)
				}
				seen++
			}
			next := counter(20)
			err := Ordered(workers, func() (int, bool) {
				check("next")
				return next()
			}, func(_ int, i int, r *slot) {
				check("work")
				r.item = i
			}, func(*slot) error {
				check("done")
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen != 21+20+20 {
				t.Errorf("%d callbacks, want %d", seen, 61)
			}
		})
	}
}
