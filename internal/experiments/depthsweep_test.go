package experiments

import (
	"strings"
	"testing"
)

// TestDepthSweep runs the cross-algorithm sweep at a tiny scale and checks
// its structural invariants: the grid is complete, the engines agree
// cell-for-cell on every quality column (the bit-identity guarantee made
// observable), deeper bounds only refine, and the exact rows match the
// unbounded fixpoint.
func TestDepthSweep(t *testing.T) {
	e := NewEnv(tinyConfig())
	depths := []int{1, 2, 0}
	r := e.DepthSweep(depths...)

	const datasets, engines = 3, 2
	if want := datasets * engines * len(depths); len(r.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(r.Rows), want)
	}

	// Index cells by (dataset, depth) and require every engine to agree on
	// rounds, class count, precision and recall.
	type key struct {
		dataset string
		depth   int
	}
	byCell := map[key][]DepthRow{}
	for _, row := range r.Rows {
		if row.Precision < 0 || row.Precision > 1 || row.Recall < 0 || row.Recall > 1 {
			t.Errorf("%+v: precision/recall out of [0,1]", row)
		}
		byCell[key{row.Dataset, row.Depth}] = append(byCell[key{row.Dataset, row.Depth}], row)
	}
	for k, rows := range byCell {
		if len(rows) != engines {
			t.Fatalf("cell %v: %d engine rows, want %d", k, len(rows), engines)
		}
		for _, row := range rows[1:] {
			if row.Rounds != rows[0].Rounds || row.Classes != rows[0].Classes ||
				row.Precision != rows[0].Precision || row.Recall != rows[0].Recall {
				t.Errorf("cell %v: engines disagree: %+v vs %+v", k, rows[0], row)
			}
		}
	}

	// Deeper bounds only refine: class counts are non-decreasing along
	// depths ordered 1, 2, exact.
	for _, ds := range []string{"gtopdb", "efo", "stream"} {
		prev := -1
		for _, d := range depths {
			c := byCell[key{ds, d}][0].Classes
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
