package core

import (
	"fmt"

	"rdfalign/internal/rdf"
)

// This file implements the refinement variants the paper sketches as
// extensions (§3.3: "the proposed framework could easily accommodate
// approaches that consider the incoming edges or only a selected subset of
// edges, such as those determined by the type of a node"; §6 future work:
// "using not only the contents of a node but also its context" and "a
// notion of a key for graph databases"). They are one bisimulation
// recoloring over a wider neighbourhood, so extended recoloring interns
// through Composite like the default one: recolorOpts gathers the node's
// outbound pairs, its in-edges and its predicate occurrences into one pair
// set, each kind of pair in its own sign class, plus a marker pair that
// keeps extended signatures apart from plain ones (see recolorOpts).

// Direction selects which neighbourhood recoloring draws on.
type Direction uint8

const (
	// DirOut is the paper's default: outbound neighbourhoods only.
	DirOut Direction = iota
	// DirIn recolors from inbound neighbourhoods only (pure context).
	DirIn
	// DirBoth combines contents and context.
	DirBoth
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case DirOut:
		return "out"
	case DirIn:
		return "in"
	case DirBoth:
		return "both"
	default:
		return fmt.Sprintf("direction(%d)", uint8(d))
	}
}

// EdgeFilter restricts which half-edges contribute to recoloring. It
// receives the node being recolored and the half-edge (predicate node,
// neighbour node); returning false drops the edge. A nil filter keeps
// everything. Filters express the paper's "selected subset of edges" /
// graph-key idea — e.g. keep only edges whose predicate is in a key set.
type EdgeFilter func(g *rdf.Graph, n rdf.NodeID, e rdf.Edge) bool

// RefineOptions configures the extended refinement.
type RefineOptions struct {
	Direction Direction
	Filter    EdgeFilter
	// Adaptive implements the refinement §5.1 proposes for URIs used
	// only in predicate position: a node with no outgoing edges is
	// characterised by its predicate occurrences — the (λ(s), λ(o))
	// colors of the triples that use it as a predicate — and, failing
	// that, by its incoming edges. Nodes with contents keep the paper's
	// outbound characterisation. Adaptive composes with Direction (the
	// fallbacks extend whatever Direction gathers).
	Adaptive bool
}

// extended reports whether the options change the default recoloring.
func (o RefineOptions) extended() bool {
	return o.Direction != DirOut || o.Adaptive
}

// extMarker is the pair every extended signature carries. No gathered
// pair has two negative colors, so no plain signature contains it.
var extMarker = ColorPair{P: NoColor, O: NoColor}

// recolorOpts computes the recoloring of n under opt, gathering into
// scratch, and returns the color and the grown scratch for reuse. With
// only a Filter it is the default recoloring over the kept out-edges. An
// extended recoloring interns one pair set holding
//
//   - an outbound half-edge (p, o) as (λ(p), λ(o)),
//   - an inbound half-edge {P: p, O: s} as (λ(p), ^λ(s)),
//   - a predicate occurrence {P: s, O: o} as (^λ(s), λ(o)),
//   - and the marker (NoColor, NoColor).
//
// Colors are non-negative and ^ maps them to negatives, so the three
// kinds of pair fall in disjoint sign classes: two extended signatures are
// equal exactly when their out-, in- and occurrence sets are, and the
// stable-tree collapse and color numbering are those of separate lists.
// The marker keeps an extended signature distinct from a plain one with
// the same pairs (a node whose only neighbourhood is outbound). Without it
// they would alias, and a later plain refinement on the same interner —
// Propagate inside Overlap — would collapse into extended colors.
func recolorOpts(g *rdf.Graph, p *Partition, n rdf.NodeID, opt RefineOptions, scratch []ColorPair) (Color, []ColorPair) {
	colors := p.colors
	keep := func(e rdf.Edge) bool { return opt.Filter == nil || opt.Filter(g, n, e) }
	scratch = scratch[:0]
	if opt.Direction == DirOut || opt.Direction == DirBoth {
		for _, e := range g.Out(n) {
			if keep(e) {
				scratch = append(scratch, ColorPair{P: colors[e.P], O: colors[e.O]})
			}
		}
	}
	if !opt.extended() {
		return p.in.Composite(colors[n], scratch), scratch
	}
	gatherIn := opt.Direction == DirIn || opt.Direction == DirBoth
	if opt.Adaptive && g.OutDegree(n) == 0 {
		// No contents: characterise by predicate occurrences, then by
		// context.
		occ := g.PredOcc(n)
		for _, e := range occ {
			scratch = append(scratch, ColorPair{P: ^colors[e.P], O: colors[e.O]})
		}
		gatherIn = gatherIn || len(occ) == 0
	}
	if gatherIn {
		for _, e := range g.In(n) {
			if keep(e) {
				scratch = append(scratch, ColorPair{P: colors[e.P], O: ^colors[e.O]})
			}
		}
	}
	scratch = append(scratch, extMarker)
	return p.in.Composite(colors[n], scratch), scratch
}

// PredicateKeyFilter returns an EdgeFilter that keeps only half-edges whose
// predicate node's URI label is in the key set — the "notion of a key for
// graph databases" of §6. Nodes are compared by label so the filter works
// on combined graphs where each version has its own predicate node.
func PredicateKeyFilter(keys ...string) EdgeFilter {
	set := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		set[k] = struct{}{}
	}
	return func(g *rdf.Graph, _ rdf.NodeID, e rdf.Edge) bool {
		l := g.Label(e.P)
		if l.Kind != rdf.URI {
			return false
		}
		_, ok := set[l.Value]
		return ok
	}
}
