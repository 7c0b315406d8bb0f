package experiments

import (
	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// Fig9Result reproduces Figure 9: node and edge counts of the EFO dataset
// versions, plus the paper's explanation of the blank-count fluctuation:
// "the fluctuations are due to duplication (bisimilar blank nodes) and
// normalized counts of blank nodes do not fluctuate but grow steadily" —
// NormalizedBlanks counts bisimilarity classes of blanks instead of blanks.
type Fig9Result struct {
	Stats            []rdf.Stats
	NormalizedBlanks []int
}

// Fig9 gathers the EFO version statistics.
func (e *Env) Fig9() *Fig9Result {
	d := e.EFO()
	out := &Fig9Result{}
	for _, g := range d.Graphs {
		out.Stats = append(out.Stats, rdf.GatherStats(g))
		p, _, _ := (&core.Engine{}).Deblank(g, core.NewInterner())
		classes := map[core.Color]struct{}{}
		g.Nodes(func(n rdf.NodeID) {
			if g.IsBlank(n) {
				classes[p.Color(n)] = struct{}{}
			}
		})
		out.NormalizedBlanks = append(out.NormalizedBlanks, len(classes))
	}
	return out
}

// String renders the figure as a table.
func (r *Fig9Result) String() string {
	rows := make([][]string, len(r.Stats))
	for i, s := range r.Stats {
		rows[i] = []string{itoa(i + 1), itoa(s.URIs), itoa(s.Literals),
			itoa(s.Blanks), itoa(r.NormalizedBlanks[i]), itoa(s.Triples)}
	}
	return renderTable("Figure 9: EFO dataset versions",
		[]string{"version", "URIs", "literals", "blanks", "blanks(norm)", "edges"}, rows)
}

// Fig10Result reproduces Figure 10: the aligned-edge ratio of the Trivial
// and Deblank alignments between every pair of EFO versions (the ratio of
// edge signatures aligned to all edge signatures, 1.0 on the Deblank
// diagonal).
type Fig10Result struct {
	Trivial [][]float64
	Deblank [][]float64
}

// Fig10 computes both matrices.
func (e *Env) Fig10() *Fig10Result {
	d := e.EFO()
	n := len(d.Graphs)
	out := &Fig10Result{Trivial: sq(n), Deblank: sq(n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := e.pairBase("efo", d.Graphs, i, j)
			out.Trivial[i][j] = core.EdgeAlignment(a.c, a.trivial).Ratio()
			out.Deblank[i][j] = core.EdgeAlignment(a.c, a.deblank).Ratio()
		}
	}
	return out
}

// String renders both matrices.
func (r *Fig10Result) String() string {
	return renderMatrix("Figure 10 (left): Trivial aligned-edge ratio", r.Trivial, "%.3f") +
		"\n" +
		renderMatrix("Figure 10 (right): Deblank aligned-edge ratio", r.Deblank, "%.3f")
}

// Fig11Result reproduces Figure 11: the absolute number of edge signatures
// additionally aligned by Hybrid over Deblank, and by Overlap over Hybrid,
// between every pair of EFO versions. The improvements concentrate around
// the prefix-migration versions.
type Fig11Result struct {
	HybridVsDeblank [][]float64
	OverlapVsHybrid [][]float64
}

// Fig11 computes both matrices.
func (e *Env) Fig11() *Fig11Result {
	d := e.EFO()
	n := len(d.Graphs)
	out := &Fig11Result{HybridVsDeblank: sq(n), OverlapVsHybrid: sq(n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a := e.pair("efo", d.Graphs, i, j)
			deblank := core.EdgeAlignment(a.c, a.deblank).Common
			hybrid := core.EdgeAlignment(a.c, a.hybrid).Common
			overlap := core.EdgeAlignment(a.c, a.overlap.Xi.P).Common
			out.HybridVsDeblank[i][j] = float64(hybrid - deblank)
			out.OverlapVsHybrid[i][j] = float64(overlap - hybrid)
		}
	}
	return out
}

// String renders both matrices.
func (r *Fig11Result) String() string {
	return renderMatrix("Figure 11 (left): Hybrid vs Deblank (extra aligned edge signatures)",
		r.HybridVsDeblank, "%.0f") +
		"\n" +
		renderMatrix("Figure 11 (right): Overlap vs Hybrid (extra aligned edge signatures)",
			r.OverlapVsHybrid, "%.0f")
}

func sq(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}
