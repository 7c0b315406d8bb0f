package archive

import (
	"cmp"
	"fmt"

	"rdfalign/internal/rdf"
)

// LabelRun is the exported form of one entity's label over a version
// interval, used by the snapshot serialiser (internal/snapshot).
type LabelRun struct {
	Label    rdf.Label
	Interval Interval
}

// Raw exposes the archive's internal columns for serialisation. Every
// archive satisfies these invariants at all times:
//
//   - Rows is sorted strictly ascending by (S, P, O) entity IDs — New and
//     Append merge each version into the sorted rows rather than
//     re-sorting, and rely on this order to find the rows they extend,
//   - every row has at least one interval; intervals per row are
//     ascending and disjoint (next.From > prev.To), each inside
//     [0, Versions),
//   - Labels[e] are the label runs of entity e, ascending and disjoint
//     the same way.
//
// TotalTriples (Σ |E_v| over the archived versions) is not part of Raw:
// it equals the summed interval lengths over all rows and is recomputed
// by FromRaw.
type Raw struct {
	Versions int
	Labels   [][]LabelRun
	Rows     []TripleRow
}

// Raw returns the archive's internal columns. Slices alias the archive's
// storage and must not be modified; a later Append may rewrite the
// rows in place.
func (a *Archive) Raw() Raw {
	labels := make([][]LabelRun, len(a.labels))
	for e, runs := range a.labels {
		out := make([]LabelRun, len(runs))
		for i, run := range runs {
			out[i] = LabelRun{Label: run.label, Interval: run.iv}
		}
		labels[e] = out
	}
	return Raw{Versions: a.versions, Labels: labels, Rows: a.rows}
}

// FromRaw reconstructs an Archive from its columns, validating the archive
// invariants so that corrupt input errors here instead of misbehaving in
// LabelAt, Snapshot or a later Append. TotalTriples is recomputed
// from the interval lengths, so GatherStats on a loaded archive matches
// the freshly built one exactly.
func FromRaw(r Raw) (*Archive, error) {
	if r.Versions < 1 {
		return nil, fmt.Errorf("archive: raw archive has %d versions", r.Versions)
	}
	a := &Archive{versions: r.Versions, labels: make([][]labelRun, len(r.Labels)), rows: r.Rows}
	for e, runs := range r.Labels {
		conv := make([]labelRun, len(runs))
		prevTo := -1
		for i, run := range runs {
			if run.Label.Kind != rdf.URI && run.Label.Kind != rdf.Literal && run.Label.Kind != rdf.Blank {
				return nil, fmt.Errorf("archive: raw entity %d run %d has unknown label kind %d", e, i, run.Label.Kind)
			}
			if err := checkInterval(run.Interval, prevTo, r.Versions); err != nil {
				return nil, fmt.Errorf("archive: raw entity %d run %d: %w", e, i, err)
			}
			prevTo = run.Interval.To
			conv[i] = labelRun{label: run.Label, iv: run.Interval}
		}
		a.labels[e] = conv
	}
	prev := [3]EntityID{-1, -1, -1}
	for i, row := range r.Rows {
		key := [3]EntityID{row.S, row.P, row.O}
		if compareKey(prev, key) >= 0 {
			return nil, fmt.Errorf("archive: raw row %d (%d,%d,%d) out of (S,P,O) order", i, row.S, row.P, row.O)
		}
		prev = key
		for _, e := range key {
			if e < 0 || int(e) >= len(r.Labels) {
				return nil, fmt.Errorf("archive: raw row %d references entity %d outside [0,%d)", i, e, len(r.Labels))
			}
		}
		if len(row.Intervals) == 0 {
			return nil, fmt.Errorf("archive: raw row %d has no intervals", i)
		}
		prevTo := -1
		for j, iv := range row.Intervals {
			if err := checkInterval(iv, prevTo, r.Versions); err != nil {
				return nil, fmt.Errorf("archive: raw row %d interval %d: %w", i, j, err)
			}
			prevTo = iv.To
			a.totalTriples += iv.To - iv.From + 1
		}
	}
	return a, nil
}

func checkInterval(iv Interval, prevTo, versions int) error {
	if iv.From <= prevTo || iv.From > iv.To || iv.To >= versions {
		return fmt.Errorf("interval [%d,%d] invalid after To=%d (versions=%d)", iv.From, iv.To, prevTo, versions)
	}
	return nil
}

// compareKey orders entity triples by (S, P, O): the order of Archive rows.
func compareKey(x, y [3]EntityID) int {
	if x[0] != y[0] {
		return cmp.Compare(x[0], y[0])
	}
	if x[1] != y[1] {
		return cmp.Compare(x[1], y[1])
	}
	return cmp.Compare(x[2], y[2])
}
