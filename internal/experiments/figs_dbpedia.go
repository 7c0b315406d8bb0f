package experiments

import (
	"fmt"
	"time"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/similarity"
)

// Fig16Row is the timing of one consecutive DBpedia version pair.
type Fig16Row struct {
	Pair    string
	Trivial time.Duration
	Hybrid  time.Duration
	Overlap time.Duration
}

// Fig16Result reproduces Figure 16: dataset sizes of the DBpedia versions
// and the running time of the Trivial, Hybrid and Overlap alignments on
// consecutive pairs (the scalability experiment of §5.3).
type Fig16Result struct {
	Stats []rdf.Stats
	Rows  []Fig16Row
}

// Fig16 measures wall-clock alignment times. Each method is timed
// end-to-end from the already-built combined graph (single-threaded, as in
// the paper's setup).
func (e *Env) Fig16() *Fig16Result {
	d := e.DBpedia()
	out := &Fig16Result{}
	for _, g := range d.Graphs {
		out.Stats = append(out.Stats, rdf.GatherStats(g))
	}
	for v := 0; v+1 < len(d.Graphs); v++ {
		c := rdf.Union(d.Graphs[v], d.Graphs[v+1])
		row := Fig16Row{Pair: fmt.Sprintf("%d-%d", v+1, v+2)}

		start := time.Now()
		in := core.NewInterner()
		core.TrivialPartition(c.Graph, in)
		row.Trivial = time.Since(start)

		start = time.Now()
		in = core.NewInterner()
		eng := &core.Engine{}
		deblank, _, _ := eng.Deblank(c.Graph, in)
		hybrid, _, _ := eng.HybridFromDeblank(c, deblank)
		row.Hybrid = time.Since(start)

		start = time.Now()
		if _, err := similarity.OverlapAlign(c, hybrid, similarity.OverlapOptions{
			Theta:   e.Cfg.Theta,
			Epsilon: e.Cfg.Epsilon,
		}); err != nil {
			panic(fmt.Sprintf("experiments: overlap on dbpedia pair %s: %v", row.Pair, err))
		}
		row.Overlap = row.Hybrid + time.Since(start) // overlap subsumes hybrid
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String renders the figure as two tables: sizes and times.
func (r *Fig16Result) String() string {
	sizeRows := make([][]string, len(r.Stats))
	for i, s := range r.Stats {
		sizeRows[i] = []string{itoa(i + 1), itoa(s.Triples), itoa(s.URIs), itoa(s.Literals)}
	}
	timeRows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		timeRows[i] = []string{row.Pair,
			fmt.Sprintf("%.3fs", row.Trivial.Seconds()),
			fmt.Sprintf("%.3fs", row.Hybrid.Seconds()),
			fmt.Sprintf("%.3fs", row.Overlap.Seconds())}
	}
	return renderTable("Figure 16 (sizes): DBpedia dataset versions",
		[]string{"version", "triples", "URIs", "literals"}, sizeRows) +
		"\n" +
		renderTable("Figure 16 (times): alignment wall-clock on consecutive pairs",
			[]string{"versions", "Trivial", "Hybrid", "Overlap"}, timeRows)
}
