// Package delta derives change descriptions from alignments. The paper's
// related work notes that "constructing an alignment between two graphs is
// virtually equivalent to constructing their delta [20], a description of
// changes occurring between the two graphs"; this package makes that
// equivalence executable: given an alignment partition over a combined
// graph, it reports which triples were retained, removed and added at the
// atomic level of nodes and labels — the "low-level changes" the paper says
// it identifies, in contrast to the high-level change detection of [14].
package delta

import (
	"fmt"
	"sort"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// Delta partitions the edges of the two versions by alignment status. A
// source triple is retained when the target version has a triple whose
// subject, predicate and object are all aligned with it (same color
// signature); the matching is one-to-one per signature, so duplicated
// signatures beyond the other side's multiplicity count as changes.
type Delta struct {
	// Retained counts signature-matched triples (once per match).
	Retained int
	// Removed holds G1 triples with no matched counterpart, as G1 node
	// triples.
	Removed []rdf.Triple
	// Added holds G2 triples with no matched counterpart, as G2 node
	// triples.
	Added []rdf.Triple
}

// Compute derives the delta of a combined graph under a partition.
func Compute(c *rdf.Combined, p *core.Partition) *Delta {
	type sig struct{ s, pr, o core.Color }
	// side calls f with the signature of every triple whose subject lies in
	// [lo, hi), in (S, P, O) order.
	side := func(lo, hi int, f func(rdf.Triple, sig)) {
		for s := rdf.NodeID(lo); int(s) < hi; s++ {
			for _, e := range c.Out(s) {
				f(rdf.Triple{S: s, P: e.P, O: e.O}, sig{p.Color(s), p.Color(e.P), p.Color(e.O)})
			}
		}
	}
	remaining := make(map[sig]int)
	side(0, c.N1, func(_ rdf.Triple, k sig) { remaining[k]++ })
	d := &Delta{}
	// Match G2 edges against G1 signature multiset.
	side(c.N1, c.N1+c.N2, func(t rdf.Triple, k sig) {
		if remaining[k] > 0 {
			remaining[k]--
			d.Retained++
		} else {
			d.Added = append(d.Added, rdf.Triple{
				S: c.ToTarget(t.S), P: c.ToTarget(t.P), O: c.ToTarget(t.O),
			})
		}
	})
	// G1 edges not consumed by a match were removed.
	side(0, c.N1, func(t rdf.Triple, k sig) {
		if remaining[k] > 0 {
			remaining[k]--
			d.Removed = append(d.Removed, t)
		}
	})
	sortTriples(d.Removed)
	sortTriples(d.Added)
	return d
}

func sortTriples(ts []rdf.Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
}

// Summary renders the change counts.
func (d *Delta) Summary() string {
	return fmt.Sprintf("retained=%d removed=%d added=%d", d.Retained, len(d.Removed), len(d.Added))
}

// Format renders the delta as a patch-style listing with labels resolved
// through the given graphs.
func (d *Delta) Format(g1, g2 *rdf.Graph) string {
	out := d.Summary() + "\n"
	for _, t := range d.Removed {
		out += fmt.Sprintf("- %s %s %s\n", g1.Label(t.S), g1.Label(t.P), g1.Label(t.O))
	}
	for _, t := range d.Added {
		out += fmt.Sprintf("+ %s %s %s\n", g2.Label(t.S), g2.Label(t.P), g2.Label(t.O))
	}
	return out
}
