package rdf

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	"rdfalign/internal/par"
)

// This file implements the N-Triples ingestion pipeline: workers lex
// line-boundary-aligned input blocks (see scan.go) into triple batches with
// block-local term interning, and a batchMerge merges the batches into one
// Builder, strictly in block order (par.Ordered), so that NodeID
// assignment — and therefore the finished Graph — is the same for every
// worker count: workers produce out of order, allocation happens in
// document order. One worker runs the same pipeline inline.

// ParseOption configures ParseNTriples and ParseNTriplesString.
type ParseOption func(*parseOpts)

type parseOpts struct {
	workers   int
	strict    bool
	blockSize int
}

// WithParseWorkers sets the number of parse workers: values above 1 parse
// blocks concurrently, 0 and 1 parse them one at a time on the calling
// goroutine, and negative values use GOMAXPROCS. Every worker count runs
// the same block pipeline, so the resulting graph is bit-identical (node
// IDs, labels, triples) for every worker count, and on syntax errors the
// reported *ParseError is the first error in document order.
func WithParseWorkers(n int) ParseOption {
	return func(o *parseOpts) { o.workers = n }
}

// WithStrictMode tightens the accepted N-Triples dialect: term values must
// be valid UTF-8, control characters in IRIs and literals must use escape
// sequences rather than appearing raw, blank node labels are restricted
// to [A-Za-z0-9_], '-' and non-final '.' (an approximation of the W3C
// BLANK_NODE_LABEL production), and a literal suffix must be a LANGTAG
// (@[A-Za-z]+(-[A-Za-z0-9]+)*) or "^^" and an IRIREF, as in Turtle. The
// default, lax mode accepts everything strict mode does and more,
// byte-preservingly: it keeps any other suffix verbatim up to the next
// space or tab. In both modes a datatype IRIREF's escapes are decoded.
func WithStrictMode() ParseOption {
	return func(o *parseOpts) { o.strict = true }
}

// withParseBlockSize overrides the scanner block size so tests can force
// multi-block parses (and block-boundary edge cases) on small documents.
func withParseBlockSize(n int) ParseOption {
	return func(o *parseOpts) { o.blockSize = n }
}

func resolveParseOpts(opts []ParseOption) parseOpts {
	o := parseOpts{workers: 1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	if o.workers < 1 {
		o.workers = 1
	}
	return o
}

// termSink receives parsed terms and triples. The owned flag reports
// whether the value string is freshly allocated (escape decoding built it)
// or a view into the input block; sinks clone views before retaining them
// so that graph labels never pin multi-hundred-kilobyte input blocks.
type termSink interface {
	uriTerm(v string, owned bool) NodeID
	literalTerm(v string, owned bool) NodeID
	blankTerm(name string, owned bool) NodeID
	triple(s, p, o NodeID)
}

// builderSink feeds terms straight into a Builder: the Turtle parser's
// sink, and the merge's blank-node interning.
type builderSink struct{ b *Builder }

func (s builderSink) uriTerm(v string, owned bool) NodeID {
	return s.b.term(&s.b.uris, URI, v, termHash(v), owned)
}

func (s builderSink) literalTerm(v string, owned bool) NodeID {
	return s.b.term(&s.b.lits, Literal, v, termHash(v), owned)
}

func (s builderSink) blankTerm(name string, owned bool) NodeID {
	if id, ok := s.b.blanks[name]; ok {
		return id
	}
	if !owned {
		name = strings.Clone(name)
	}
	id := s.b.add(BlankLabel())
	s.b.blanks[name] = id
	return id
}

func (s builderSink) triple(sub, p, o NodeID) { s.b.Triple(sub, p, o) }

// batchTerm is one block-local term: its kind plus the URI/literal value
// or, for blanks, the document-local blank label. The value is usually a
// view into the block; hash is its termHash (zero for blanks), computed
// once by the worker and reused by the merge.
type batchTerm struct {
	kind  Kind
	value string
	hash  uint64
}

// parseBatch is the parsed form of one block: terms in block-local
// first-occurrence order, triples over block-local term indexes, and the
// first syntax error (already carrying its global line number), if any.
// Once merged, a batch's triples become part of the graph's edge list and
// the rest of the batch is recycled for a later block.
type parseBatch struct {
	terms   []batchTerm
	triples []Triple
	err     error
}

// batchBuilder interns terms block-locally while a worker parses a block.
// A worker keeps one batchBuilder for all its blocks: its dictionaries are
// emptied, not reallocated, between blocks.
type batchBuilder struct {
	terms   []batchTerm
	triples []Triple
	uris    termDict
	lits    termDict
	blanks  map[string]NodeID
}

func newBatchBuilder() *batchBuilder {
	return &batchBuilder{
		uris:   newTermDict(),
		lits:   newTermDict(),
		blanks: make(map[string]NodeID),
	}
}

func (bb *batchBuilder) valueAt(id NodeID) string { return bb.terms[id].value }

// term interns a URI or literal without copying it: a view stays a view
// into the block until the merge decides whether the document needs it.
func (bb *batchBuilder) term(d *termDict, kind Kind, v string) NodeID {
	h := termHash(v)
	if id, ok := d.lookup(h, v, bb.valueAt); ok {
		return id
	}
	id := NodeID(len(bb.terms))
	bb.terms = append(bb.terms, batchTerm{kind: kind, value: v, hash: h})
	d.insert(h, v, id)
	return id
}

func (bb *batchBuilder) uriTerm(v string, _ bool) NodeID {
	return bb.term(&bb.uris, URI, v)
}

func (bb *batchBuilder) literalTerm(v string, _ bool) NodeID {
	return bb.term(&bb.lits, Literal, v)
}

func (bb *batchBuilder) blankTerm(name string, _ bool) NodeID {
	if id, ok := bb.blanks[name]; ok {
		return id
	}
	id := NodeID(len(bb.terms))
	bb.terms = append(bb.terms, batchTerm{kind: Blank, value: name})
	bb.blanks[name] = id
	return id
}

func (bb *batchBuilder) triple(s, p, o NodeID) {
	bb.triples = append(bb.triples, Triple{S: s, P: p, O: o})
}

// parseBlockBatch parses one block into batch, whose slices it reuses.
// Past a syntax error the rest of the block is skipped: the error is the
// block's first, and the merge reports the first block's error.
func (bb *batchBuilder) parseBlockBatch(batch *parseBatch, blk parseBlock, strict bool) {
	batch.err = nil
	if blk.readErr != nil {
		batch.err = fmt.Errorf("ntriples: read: %w", blk.readErr)
		return
	}
	bb.uris.reset()
	bb.lits.reset()
	clear(bb.blanks)
	// A line holds at most one triple, so the block's triples fit without
	// growing; the merge keeps this slice as part of the graph's edge list.
	// A block has about as many distinct terms as lines, so a fresh batch
	// starts with that room instead of growing to it.
	lines := strings.Count(blk.data, "\n") + 1
	bb.terms, bb.triples = slices.Grow(batch.terms[:0], lines), make([]Triple, 0, lines)
	batch.err = forEachLine(blk.data, blk.startLine, func(line string, lineNo int) error {
		return parseLineInto(bb, line, lineNo, strict)
	})
	batch.terms, batch.triples = bb.terms, bb.triples
	bb.terms, bb.triples = nil, nil
}

// batchMerge merges parsed batches into one Builder. The pool hands it
// the batches strictly in block order, so every term gets the ID a
// sequential first-occurrence scan would have given it.
type batchMerge struct {
	b     *Builder
	remap []NodeID // apply's block-local → global ID table
	// chunks holds the merged triples, one remapped batch slice per block
	// in block order; freeze reads them in place.
	chunks [][]Triple
}

// apply merges one batch: block-local term indexes are remapped through
// the builder's get-or-create tables in first-occurrence order, reusing
// the hash each worker computed. A term value is cloned out of its block
// only when it is new to the whole document. The batch's triples are
// remapped in place and kept as the next chunk of the edge list, so the
// merge never copies triples into a growing slice. A batch holding a
// syntax or read error is not merged: its error is returned instead, and
// being the first in block order, it is the first in the document.
func (m *batchMerge) apply(batch *parseBatch) error {
	if batch.err != nil {
		return batch.err
	}
	b := m.b
	remap := slices.Grow(m.remap[:0], len(batch.terms))[:len(batch.terms)]
	sink := builderSink{b}
	for i, t := range batch.terms {
		switch t.kind {
		case URI:
			remap[i] = b.term(&b.uris, URI, t.value, t.hash, false)
		case Literal:
			remap[i] = b.term(&b.lits, Literal, t.value, t.hash, false)
		default:
			remap[i] = sink.blankTerm(t.value, false)
		}
	}
	for i, tr := range batch.triples {
		batch.triples[i] = Triple{S: remap[tr.S], P: remap[tr.P], O: remap[tr.O]}
	}
	m.chunks = append(m.chunks, batch.triples)
	m.remap = remap
	// Drop the merged batch's views so the recycled slot does not pin its
	// old block.
	clear(batch.terms)
	batch.triples = nil
	return nil
}

// parseNTriplesScanner parses blocks on a par.Ordered pool: workers
// parse blocks into batches concurrently, each with its own batchBuilder,
// and the merge runs in block order, which guarantees deterministic IDs
// and reports the first error in document order. The pool's bound on
// claimed-but-unmerged blocks bounds the parsed-but-unmerged memory. At
// one worker the pool runs inline: each block is parsed into the one
// batch and merged before the next is read.
func parseNTriplesScanner(sc *blockScanner, name string, o parseOpts) (*Graph, error) {
	m := &batchMerge{b: NewBuilder(name)}
	bbs := make([]*batchBuilder, o.workers)
	parse := func(w int, blk parseBlock, batch *parseBatch) {
		if bbs[w] == nil {
			bbs[w] = newBatchBuilder()
		}
		bbs[w].parseBlockBatch(batch, blk, o.strict)
	}
	if err := par.Ordered(o.workers, sc.next, parse, m.apply); err != nil {
		return nil, err
	}
	return m.b.freeze(m.chunks...)
}
