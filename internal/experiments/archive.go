package experiments

import (
	"fmt"

	"rdfalign/internal/archive"
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
// occurrence-profile overlap, and with Overlap-based alignment on top.
func (e *Env) ExperimentArchive() *ArchiveResult {
	out := &ArchiveResult{}
	add := func(name string, graphs []*rdf.Graph, opt archive.BuildOptions) {
		opt.Engine.Hooks = e.Cfg.Hooks
		a, err := archive.Build(graphs, opt)
		if err != nil {
			panic(fmt.Sprintf("experiments: archive over %s: %v", name, err))
		}
		out.Rows = append(out.Rows, ArchiveRow{Dataset: name, Stats: a.GatherStats()})
	}
	add("efo (hybrid)", e.EFO().Graphs, archive.BuildOptions{})
	add("gtopdb (hybrid)", e.GtoPdb().Graphs, archive.BuildOptions{})
	add("gtopdb (resolve)", e.GtoPdb().Graphs, archive.BuildOptions{ResolveAmbiguous: true})
	add("gtopdb (resolve+overlap)", e.GtoPdb().Graphs, archive.BuildOptions{
		ResolveAmbiguous: true, UseOverlap: true, Theta: e.Cfg.Theta, Epsilon: e.Cfg.Epsilon,
	})
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
