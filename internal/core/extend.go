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
// notion of a key for graph databases"). Extended recoloring interns
// through CompositeLists, the multi-list ('L'-kind) domain of the hash
// interner — disjoint from the plain Composite domain, so extended and
// default colors never alias within one interner.

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

// recolorOpts computes the extended recoloring of n. The three scratch
// buffers hold the out, in and predicate-occurrence pair lists.
func recolorOpts(g *rdf.Graph, p *Partition, n rdf.NodeID, opt RefineOptions,
	scratch *[3][]ColorPair) Color {
	outS := scratch[0][:0]
	inS := scratch[1][:0]
	poS := scratch[2][:0]
	if opt.Direction == DirOut || opt.Direction == DirBoth {
		for _, e := range g.Out(n) {
			if opt.Filter != nil && !opt.Filter(g, n, e) {
				continue
			}
			outS = append(outS, ColorPair{P: p.colors[e.P], O: p.colors[e.O]})
		}
	}
	gatherIn := opt.Direction == DirIn || opt.Direction == DirBoth
	if opt.Adaptive && len(outS) == 0 && g.OutDegree(n) == 0 {
		// No contents: characterise by predicate occurrences, then by
		// context.
		for _, e := range g.PredOcc(n) {
			poS = append(poS, ColorPair{P: p.colors[e.P], O: p.colors[e.O]})
		}
		if len(poS) == 0 {
			gatherIn = true
		}
	}
	if gatherIn {
		for _, e := range g.In(n) {
			if opt.Filter != nil && !opt.Filter(g, n, e) {
				continue
			}
			inS = append(inS, ColorPair{P: p.colors[e.P], O: p.colors[e.O]})
		}
	}
	scratch[0], scratch[1], scratch[2] = outS, inS, poS
	if opt.Direction == DirOut && !opt.Adaptive {
		return p.in.Composite(p.colors[n], outS)
	}
	return p.in.CompositeLists(p.colors[n], outS, inS, poS)
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
