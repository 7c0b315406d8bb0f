package experiments

import (
	"strings"
	"testing"
)

// TestDepthSweep runs the bounded-depth sweep at a tiny scale and checks
// its structural invariants: the grid is complete with one row per
// (dataset, depth) cell, and deeper bounds only refine.
func TestDepthSweep(t *testing.T) {
	e := NewEnv(tinyConfig())
	depths := []int{1, 2, 0}
	r := e.DepthSweep(depths...)

	const datasets = 3
	if want := datasets * len(depths); len(r.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(r.Rows), want)
	}

	type key struct {
		dataset string
		depth   int
	}
	byCell := map[key]DepthRow{}
	for _, row := range r.Rows {
		if row.Precision < 0 || row.Precision > 1 || row.Recall < 0 || row.Recall > 1 {
			t.Errorf("%+v: precision/recall out of [0,1]", row)
		}
		k := key{row.Dataset, row.Depth}
		if _, dup := byCell[k]; dup {
			t.Fatalf("cell %v appears twice", k)
		}
		byCell[k] = row
	}

	// Deeper bounds only refine: class counts are non-decreasing along
	// depths ordered 1, 2, exact.
	for _, ds := range []string{"gtopdb", "efo", "stream"} {
		prev := -1
		for _, d := range depths {
			row, ok := byCell[key{ds, d}]
			if !ok {
				t.Fatalf("%s: no row at depth %d", ds, d)
			}
			c := row.Classes
			if c < prev {
				t.Errorf("%s: classes dropped from %d to %d at depth %d", ds, prev, c, d)
			}
			prev = c
		}
	}

	s := r.String()
	if !strings.Contains(s, "Bounded-depth sweep") || !strings.Contains(s, "exact") {
		t.Errorf("rendering incomplete:\n%s", s)
	}
	w := r.Workload("test")
	if len(w.Results) != len(r.Rows) {
		t.Fatalf("workload results = %d, want %d", len(w.Results), len(r.Rows))
	}
	for _, res := range w.Results {
		if !strings.HasPrefix(res.Bench, "DepthSweep/") || res.NsOp <= 0 {
			t.Errorf("bad workload row: %+v", res)
		}
	}
}
