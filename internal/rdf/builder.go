package rdf

import (
	"fmt"
	"hash/maphash"
	"strings"
)

// Builder constructs a Graph incrementally. URI and Literal perform
// get-or-create lookups so that the finished graph satisfies the RDF
// uniqueness conditions by construction; Blank always creates a fresh node
// unless a local name is reused within the same builder (mirroring how blank
// node labels scope to a single document).
//
// A Builder is not safe for concurrent use.
type Builder struct {
	name    string
	labels  []Label
	triples []Triple
	uris    termDict
	lits    termDict
	blanks  map[string]NodeID
}

// NewBuilder returns an empty builder for a graph with the given diagnostic
// name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		uris:   newTermDict(),
		lits:   newTermDict(),
		blanks: make(map[string]NodeID),
	}
}

// NumNodes returns the number of nodes created so far.
func (b *Builder) NumNodes() int { return len(b.labels) }

// NumTriples returns the number of triples added so far (before
// deduplication).
func (b *Builder) NumTriples() int { return len(b.triples) }

func (b *Builder) add(l Label) NodeID {
	id := NodeID(len(b.labels))
	b.labels = append(b.labels, l)
	return id
}

func (b *Builder) valueAt(id NodeID) string { return b.labels[id].Value }

// term returns the node labelled (kind, v) from d, the dictionary of that
// kind, creating it on first use; h is termHash(v). A v that is a view
// into parser input (owned false) is cloned only when a node is created.
func (b *Builder) term(d *termDict, kind Kind, v string, h uint64, owned bool) NodeID {
	if id, ok := d.lookup(h, v, b.valueAt); ok {
		return id
	}
	if !owned {
		v = strings.Clone(v)
	}
	id := b.add(Label{Kind: kind, Value: v})
	d.insert(h, v, id)
	return id
}

// URI returns the node labelled with the given URI, creating it on first
// use.
func (b *Builder) URI(v string) NodeID {
	return b.term(&b.uris, URI, v, termHash(v), true)
}

// Literal returns the node carrying the given literal value, creating it on
// first use. Literal values are unique per graph (§2.1), so repeated data
// strings share one node.
func (b *Builder) Literal(v string) NodeID {
	return b.term(&b.lits, Literal, v, termHash(v), true)
}

// Blank returns the blank node with the given document-local name, creating
// it on first use. The name is forgotten once the graph is built: all blank
// nodes carry the same label.
func (b *Builder) Blank(local string) NodeID {
	if id, ok := b.blanks[local]; ok {
		return id
	}
	id := b.add(BlankLabel())
	b.blanks[local] = id
	return id
}

// FreshBlank returns a new blank node with no reusable local name.
func (b *Builder) FreshBlank() NodeID {
	return b.add(BlankLabel())
}

// Triple records the edge (s, p, o). Duplicate triples are tolerated and
// removed when the graph is built.
func (b *Builder) Triple(s, p, o NodeID) {
	b.triples = append(b.triples, Triple{S: s, P: p, O: o})
}

// TripleURI is a convenience for the overwhelmingly common pattern of a URI
// predicate: it records (s, URI(p), o).
func (b *Builder) TripleURI(s NodeID, p string, o NodeID) {
	b.Triple(s, b.URI(p), o)
}

// Graph finalises the builder into an immutable Graph and validates the RDF
// conditions of §2.1. Only the triple conditions need checking: the term
// dictionaries already made URI and literal labels unique. The builder must
// not be used afterwards.
func (b *Builder) Graph() (*Graph, error) { return b.freeze(b.triples) }

// freeze is Graph over the given triple chunks in place of the builder's
// own list.
func (b *Builder) freeze(chunks ...[]Triple) (*Graph, error) {
	g := freeze(b.name, b.labels, chunks...)
	if err := g.validateTriples(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustGraph is Graph for construction sites (tests, generators) where a
// validation failure is a bug.
func (b *Builder) MustGraph() *Graph {
	g, err := b.Graph()
	if err != nil {
		panic(fmt.Sprintf("rdf: MustGraph: %v", err))
	}
	return g
}

// termSeed seeds termHash for the life of the process.
var termSeed = maphash.MakeSeed()

// termHash hashes a URI or literal value for the term dictionaries. The
// parser hashes each term once: a parse worker stores the hash with the
// term and the merge reuses it. The hash only locates a value; it never
// reaches a node ID, a color or a file, so tests may swap in a colliding
// function without changing any parse result.
var termHash = func(v string) uint64 { return maphash.String(termSeed, v) }

// termDict maps URI or literal values to node IDs by their termHash. The
// first value seen with a given hash owns that hash's slot; a later,
// different value with the same hash is a genuine collision and lives in
// the overflow map. The dictionary does not store values: lookups confirm
// a slot hit against the value held by the slot's node.
type termDict struct {
	byHash   map[uint64]NodeID
	overflow map[string]NodeID // nil until the first collision
}

func newTermDict() termDict {
	return termDict{byHash: make(map[uint64]NodeID)}
}

// lookup returns the node holding v, where h = termHash(v) and valueAt
// returns the value held by a node of this dictionary.
func (d *termDict) lookup(h uint64, v string, valueAt func(NodeID) string) (NodeID, bool) {
	id, ok := d.byHash[h]
	if !ok || valueAt(id) == v {
		return id, ok
	}
	id, ok = d.overflow[v]
	return id, ok
}

// insert records id as the node holding v, which lookup did not find.
func (d *termDict) insert(h uint64, v string, id NodeID) {
	if _, taken := d.byHash[h]; !taken {
		d.byHash[h] = id
		return
	}
	if d.overflow == nil {
		d.overflow = make(map[string]NodeID)
	}
	d.overflow[v] = id
}

// reset empties the dictionary, keeping its allocated capacity.
func (d *termDict) reset() {
	clear(d.byHash)
	clear(d.overflow)
}
