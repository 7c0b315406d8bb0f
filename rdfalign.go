package rdfalign

import (
	"fmt"
	"io"
	"strings"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// Re-exported data model types (see internal/rdf for full documentation).
type (
	// Graph is an immutable RDF triple graph.
	Graph = rdf.Graph
	// Builder constructs graphs incrementally.
	Builder = rdf.Builder
	// Combined is the disjoint union of the two graphs being aligned.
	Combined = rdf.Combined
	// NodeID identifies a node within one graph.
	NodeID = rdf.NodeID
	// Label is a node label (URI, literal or blank).
	Label = rdf.Label
	// Stats carries the node/edge counts of a graph.
	Stats = rdf.Stats
)

// NewBuilder returns a builder for a graph with the given diagnostic name.
func NewBuilder(name string) *Builder { return rdf.NewBuilder(name) }

// ParseOption configures ParseNTriples and ParseNTriplesString.
type ParseOption = rdf.ParseOption

// WriteOption configures WriteNTriples.
type WriteOption = rdf.WriteOption

// WithParseWorkers sets the number of N-Triples parse workers: values
// above 1 parse blocks concurrently, 0 and 1 parse them one at a time on
// the calling goroutine, and negative values use all cores. Every worker
// count runs the same block pipeline, and the resulting graph is
// bit-identical (node IDs, labels, triples) for every worker count.
func WithParseWorkers(n int) ParseOption { return rdf.WithParseWorkers(n) }

// WithStrictMode tightens the accepted N-Triples dialect: term values
// must be valid UTF-8, control characters must be escaped, and blank node
// labels are restricted to the W3C label alphabet.
func WithStrictMode() ParseOption { return rdf.WithStrictMode() }

// WithWriteWorkers sets the number of N-Triples formatting workers:
// values above 1 enable the parallel fast path, 0 and 1 select the
// sequential writer, and negative values use all cores. Output bytes are
// identical for every worker count.
func WithWriteWorkers(n int) WriteOption { return rdf.WithWriteWorkers(n) }

// ParseNTriples reads an N-Triples document into a validated graph.
func ParseNTriples(r io.Reader, name string, opts ...ParseOption) (*Graph, error) {
	return rdf.ParseNTriples(r, name, opts...)
}

// ParseNTriplesString parses an in-memory N-Triples document.
func ParseNTriplesString(doc, name string, opts ...ParseOption) (*Graph, error) {
	return rdf.ParseNTriplesString(doc, name, opts...)
}

// WriteNTriples serialises a graph as N-Triples.
func WriteNTriples(w io.Writer, g *Graph, opts ...WriteOption) error {
	return rdf.WriteNTriples(w, g, opts...)
}

// ParseTurtle reads a Turtle document (the supported subset covers
// prefixes, predicate/object lists, anonymous blanks, literal
// abbreviations; see internal/rdf/turtle.go) into a validated graph.
func ParseTurtle(r io.Reader, name string) (*Graph, error) {
	return rdf.ParseTurtle(r, name)
}

// ParseTurtleString parses an in-memory Turtle document.
func ParseTurtleString(doc, name string) (*Graph, error) {
	return rdf.ParseTurtleString(doc, name)
}

// WriteTurtle serialises a graph as Turtle with derived prefixes.
func WriteTurtle(w io.Writer, g *Graph) error { return rdf.WriteTurtle(w, g) }

// GatherStats computes node and edge counts.
func GatherStats(g *Graph) Stats { return rdf.GatherStats(g) }

// Union builds the disjoint union of a source and a target graph. Align
// does this internally; Union is exposed for callers that need the combined
// graph itself.
func Union(g1, g2 *Graph) *Combined { return rdf.Union(g1, g2) }

// Method selects an alignment algorithm.
type Method int

const (
	// Trivial aligns non-blank nodes with equal labels (§3.1).
	Trivial Method = iota
	// Deblank extends Trivial with bisimulation on blank nodes (§3.3).
	Deblank
	// Hybrid extends Deblank by re-refining unaligned non-literal nodes
	// from a neutral color, aligning renamed URIs by content (§3.4).
	Hybrid
	// Overlap approximates the σEdit similarity with weighted partitions
	// built by the inverted-index overlap heuristic (§4.4–4.7,
	// Algorithms 1 and 2). Robust to small edits; scalable.
	Overlap
	// SigmaEdit computes the exact σEdit node distance (§4.2) and aligns
	// pairs within the threshold. Quadratic in the unaligned node counts;
	// use only on small graphs (it is the reference Overlap
	// approximates).
	SigmaEdit
)

// Methods lists every alignment method, in declaration order. The slice is
// freshly allocated on each call.
func Methods() []Method {
	return []Method{Trivial, Deblank, Hybrid, Overlap, SigmaEdit}
}

// String names the method.
func (m Method) String() string {
	switch m {
	case Trivial:
		return "trivial"
	case Deblank:
		return "deblank"
	case Hybrid:
		return "hybrid"
	case Overlap:
		return "overlap"
	case SigmaEdit:
		return "sigmaedit"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod converts a method name to a Method. Matching is
// case-insensitive, so the names round-trip through contexts that fold
// case (HTTP headers, JSON produced by other tools): for every method m,
// ParseMethod(m.String()) == m.
func ParseMethod(s string) (Method, error) {
	names := make([]string, 0, 5)
	for _, m := range Methods() {
		if strings.EqualFold(m.String(), s) {
			return m, nil
		}
		names = append(names, m.String())
	}
	return 0, fmt.Errorf("rdfalign: unknown method %q (valid methods: %s)", s, strings.Join(names, ", "))
}

// MarshalText implements encoding.TextMarshaler: methods serialise by name
// in JSON (the job API of cmd/rdfalignd relies on this).
func (m Method) MarshalText() ([]byte, error) {
	return []byte(m.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseMethod.
func (m *Method) UnmarshalText(b []byte) error {
	v, err := ParseMethod(string(b))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Alignment is the result of Aligner.Align: a relation between the nodes of the
// source and target graphs. Nodes are addressed by their per-graph NodeIDs
// (as returned by the builders/parsers) or by URI via the *URI helpers.
// Every relational accessor delegates to the Relation backing the method
// that produced the alignment; Relation exposes it directly.
type Alignment struct {
	// Method and Theta echo the options used.
	Method Method
	Theta  float64

	c    *rdf.Combined
	part *core.Partition // partition underlying rel (hybrid base for SigmaEdit)
	rel  Relation

	// state carries the session state incremental maintenance resumes
	// from: the persistent interner, the maintained colorings and the
	// overlap matcher caches. See session.go.
	state *alignState

	// Diagnostics.
	refineIterations int
	overlapRounds    int
}

// Combined returns the union graph the alignment was computed on.
func (a *Alignment) Combined() *Combined { return a.c }

// Source returns the source graph of the aligned pair.
func (a *Alignment) Source() *Graph { return a.c.SourceGraph() }

// Target returns the target graph of the aligned pair. After ApplyDelta
// this is the edited target — the graph every query and any further delta
// is relative to.
func (a *Alignment) Target() *Graph { return a.c.TargetGraph() }

// Relation returns the relation backing the alignment: partition-backed for
// Trivial, Deblank, Hybrid and Overlap, σEdit-backed for SigmaEdit.
func (a *Alignment) Relation() Relation { return a.rel }

// RefineIterations reports how many partition-refinement iterations ran.
func (a *Alignment) RefineIterations() int { return a.refineIterations }

// OverlapRounds reports how many enrich/propagate rounds Algorithm 2 ran
// (Overlap method only).
func (a *Alignment) OverlapRounds() int { return a.overlapRounds }

// Aligned reports whether source node n1 (a G1 node ID) is aligned with
// target node n2 (a G2 node ID).
func (a *Alignment) Aligned(n1, n2 NodeID) bool { return a.rel.Aligned(n1, n2) }

// Distance returns the distance the alignment's underlying model assigns to
// the pair: σEdit for SigmaEdit, the weighted-partition distance σ_ξ for
// Overlap, and 0/1 (aligned/unaligned) for the partition methods.
func (a *Alignment) Distance(n1, n2 NodeID) float64 { return a.rel.Distance(n1, n2) }

// MatchesOf returns the target node IDs aligned with source node n1.
func (a *Alignment) MatchesOf(n1 NodeID) []NodeID { return a.rel.MatchesOf(n1) }

// MatchesOfURI returns the target URIs aligned with the given source URI.
func (a *Alignment) MatchesOfURI(uri string) []string {
	src := a.c.SourceGraph()
	n, ok := src.FindURI(uri)
	if !ok {
		return nil
	}
	tgt := a.c.TargetGraph()
	var out []string
	for _, m := range a.MatchesOf(n) {
		if tgt.IsURI(m) {
			out = append(out, tgt.Label(m).Value)
		}
	}
	return out
}

// Pairs visits every aligned pair in sorted order. For SigmaEdit this
// enumerates the quadratic pair space; prefer Aligned/MatchesOf there.
func (a *Alignment) Pairs(f func(n1, n2 NodeID)) { a.rel.Pairs(f) }

// PairCount returns the number of aligned pairs.
func (a *Alignment) PairCount() int {
	n := 0
	a.rel.Pairs(func(_, _ NodeID) { n++ })
	return n
}

// EdgeStats reports the aligned-edge signature statistics under the
// alignment's partition (the measure behind the paper's Figures 10 and 11).
// For SigmaEdit the underlying hybrid partition is used.
type EdgeStats struct {
	// Common is the number of edge signatures occurring in both versions;
	// Union the number occurring in either.
	Common, Union int
}

// Ratio returns Common/Union (1 when both graphs are empty).
func (s EdgeStats) Ratio() float64 {
	if s.Union == 0 {
		return 1
	}
	return float64(s.Common) / float64(s.Union)
}

// EdgeStats computes the aligned-edge statistics.
func (a *Alignment) EdgeStats() EdgeStats {
	st := core.EdgeAlignment(a.c, a.part)
	return EdgeStats{Common: st.Common, Union: st.Union()}
}

// AlignedEntityCount returns the number of clusters containing nodes of
// both versions — the duplicate-free aligned entity count of Figure 13
// (for SigmaEdit, which defines no clusters, the count of source nodes with
// at least one match). With onlyURIs set, only entities involving a URI
// node are counted.
func (a *Alignment) AlignedEntityCount(onlyURIs bool) int {
	return a.rel.AlignedEntityCount(onlyURIs)
}

// Unaligned returns the source and target node IDs (per-graph) left
// unaligned by the alignment's partition.
func (a *Alignment) Unaligned() (src, tgt []NodeID) { return a.rel.Unaligned() }
