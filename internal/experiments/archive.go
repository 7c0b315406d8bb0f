package experiments

import (
	"fmt"

	"rdfalign/internal/archive"
	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// ArchiveRow summarises one dataset's archive.
type ArchiveRow struct {
	Dataset string
	Stats   archive.Stats
}

// ArchiveResult is the §6 future-work experiment: build the
// interval-annotated multi-version archive over each evolving dataset and
// measure the compression and the paper's "triples tend to enter and leave
// with their subject" observation.
type ArchiveResult struct {
	Rows []ArchiveRow
}

// ExperimentArchive builds archives for the EFO and GtoPdb histories. The
// GtoPdb history is archived three ways: with plain hybrid chaining (the
// predicate-cluster ambiguity prevents chaining across the per-version
// prefixes, so rows do not compress at all), with ambiguity resolution by
// occurrence-profile overlap, and with Overlap-based alignment on top, each
// pair aligned through the figures' pair cache.
func (e *Env) ExperimentArchive() *ArchiveResult {
	out := &ArchiveResult{}
	add := func(name, dataset string, graphs []*rdf.Graph, resolve, overlap bool) {
		a := archive.New(graphs[0])
		e.Cfg.Hooks.Round(core.StageArchive, 1, len(graphs))
		for v := 1; v < len(graphs); v++ {
			pair := e.pairBase(dataset, graphs, v-1, v)
			p := pair.hybrid
			if overlap {
				p = e.pair(dataset, graphs, v-1, v).overlap.Xi.P
			}
			if err := a.Append(pair.c, p, resolve); err != nil {
				panic(fmt.Sprintf("experiments: archive over %s: %v", name, err))
			}
			e.Cfg.Hooks.Round(core.StageArchive, v+1, len(graphs))
		}
		out.Rows = append(out.Rows, ArchiveRow{Dataset: name, Stats: a.GatherStats()})
	}
	add("efo (hybrid)", "efo", e.EFO().Graphs, false, false)
	add("gtopdb (hybrid)", "gtopdb", e.GtoPdb().Graphs, false, false)
	add("gtopdb (resolve)", "gtopdb", e.GtoPdb().Graphs, true, false)
	add("gtopdb (resolve+overlap)", "gtopdb", e.GtoPdb().Graphs, true, true)
	return out
}

// String renders the experiment.
func (r *ArchiveResult) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		s := row.Stats
		enter := "n/a"
		if s.EnterEvents > 0 {
			enter = fmt.Sprintf("%.0f%%", 100*float64(s.EnterWithSubject)/float64(s.EnterEvents))
		}
		leave := "n/a"
		if s.LeaveEvents > 0 {
			leave = fmt.Sprintf("%.0f%%", 100*float64(s.LeaveWithSubject)/float64(s.LeaveEvents))
		}
		rows[i] = []string{row.Dataset, itoa(s.Versions), itoa(s.TotalTriples),
			itoa(s.Rows), itoa(s.Intervals), f3(s.CompressionRatio), enter, leave}
	}
	return renderTable("Archive (§6 future work): interval-annotated multi-version storage",
		[]string{"dataset", "versions", "ΣTriples", "rows", "intervals", "rows/Σ", "enter-w-subj", "leave-w-subj"},
		rows)
}
