package rdf

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the parallel streaming ingestion pipeline: a worker
// pool lexes line-boundary-aligned input blocks (see scan.go) into
// per-worker triple batches with block-local term interning, and a
// ConcurrentBuilder merges the batches into one Builder, committing them
// strictly in block order so that NodeID assignment — and therefore the
// finished Graph — is bit-identical to a sequential parse: workers produce
// out of order, allocation happens in sequential order.

// ParseOption configures ParseNTriples and ParseNTriplesString.
type ParseOption func(*parseOpts)

type parseOpts struct {
	workers   int
	strict    bool
	blockSize int
}

// WithParseWorkers sets the number of parse workers: values above 1 enable
// the parallel block pipeline, 0 and 1 select the sequential path, and
// negative values use GOMAXPROCS. The resulting graph is bit-identical
// (node IDs, labels, triples) for every worker count; on syntax errors the
// reported *ParseError is the first error in document order, identical to
// the sequential parse.
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

// builderSink feeds terms straight into a Builder — the sequential path.
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
	index   int
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
// Past a syntax error the rest of the block is skipped, exactly like the
// sequential parse.
func (bb *batchBuilder) parseBlockBatch(batch *parseBatch, blk parseBlock, strict bool) {
	batch.index = blk.index
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
	bb.terms, bb.triples = batch.terms[:0], make([]Triple, 0, strings.Count(blk.data, "\n")+1)
	batch.err = forEachLine(blk.data, blk.startLine, func(line string, lineNo int) error {
		return parseLineInto(bb, line, lineNo, strict)
	})
	batch.terms, batch.triples = bb.terms, bb.triples
	bb.terms, bb.triples = nil, nil
}

// ConcurrentBuilder merges per-block parse batches into a single Builder
// with deterministic NodeID assignment: however the batches arrive,
// they are committed strictly in ascending block order, so every term gets
// the ID a sequential first-occurrence scan would have given it. It is
// safe for concurrent use by multiple workers.
//
// Memory is bounded: a worker trying to hand over a batch more than
// maxAhead blocks past the commit frontier waits until the frontier
// catches up, so at most maxAhead parsed-but-uncommitted batches exist at
// any time even when one block parses much slower than its successors.
// The wait cannot deadlock — blocks are handed to workers in index order,
// so whenever every index in [next, next+maxAhead] has been handed out,
// one of them is held by a worker that is allowed to commit (were they
// all already in pending, the drain loop would have advanced next).
type ConcurrentBuilder struct {
	mu       sync.Mutex
	frontier sync.Cond
	b        *Builder
	pending  map[int]*parseBatch
	next     int
	maxAhead int
	err      error
	remap    []NodeID      // apply's block-local → global ID table
	free     []*parseBatch // merged batches, handed back to workers
	// chunks holds the merged triples, one remapped batch slice per block
	// in block order; result concatenates them once.
	chunks [][]Triple
}

func newConcurrentBuilder(name string, workers int) *ConcurrentBuilder {
	cb := &ConcurrentBuilder{
		b:        NewBuilder(name),
		pending:  make(map[int]*parseBatch),
		maxAhead: 2*workers + 4,
	}
	cb.frontier.L = &cb.mu
	return cb
}

// commit hands over a finished batch and applies every batch that is now
// ready in block order. It returns false once an error has been recorded:
// the earliest errored block whose predecessors all parsed cleanly — i.e.
// the first error in document order — wins, and later batches are
// discarded. spare is a merged batch for the caller to parse its next
// block into, or nil when none is free.
func (cb *ConcurrentBuilder) commit(batch *parseBatch) (spare *parseBatch, ok bool) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	for cb.err == nil && batch.index > cb.next+cb.maxAhead {
		cb.frontier.Wait()
	}
	if cb.err != nil {
		return nil, false
	}
	cb.pending[batch.index] = batch
	advanced := false
	for {
		nb, ok := cb.pending[cb.next]
		if !ok {
			break
		}
		delete(cb.pending, cb.next)
		if nb.err != nil {
			cb.err = nb.err
			cb.frontier.Broadcast()
			return nil, false
		}
		cb.apply(nb)
		cb.next++
		advanced = true
		// Drop the merged batch's views so a recycled batch does not pin
		// its old block.
		clear(nb.terms)
		cb.free = append(cb.free, nb)
	}
	if advanced {
		cb.frontier.Broadcast()
	}
	if n := len(cb.free); n > 0 {
		spare = cb.free[n-1]
		cb.free = cb.free[:n-1]
	}
	return spare, true
}

// apply merges one batch: block-local term indexes are remapped through
// the builder's get-or-create tables in first-occurrence order, reusing
// the hash each worker computed. A term value is cloned out of its block
// only when it is new to the whole document. The batch's triples are
// remapped in place and kept as the next chunk of the edge list, so the
// merge never copies triples into a growing slice.
func (cb *ConcurrentBuilder) apply(batch *parseBatch) {
	b := cb.b
	remap := slices.Grow(cb.remap[:0], len(batch.terms))[:len(batch.terms)]
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
	cb.chunks = append(cb.chunks, batch.triples)
	batch.triples = nil
	cb.remap = remap
}

// result finalises the merged graph, or returns the recorded first error.
func (cb *ConcurrentBuilder) result() (*Graph, error) {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if cb.err != nil {
		return nil, cb.err
	}
	cb.b.triples, cb.chunks = slices.Concat(cb.chunks...), nil
	return cb.b.Graph()
}

// parseNTriplesSeq is the sequential block-at-a-time parse: same scanner,
// same line parser, terms fed straight into one Builder.
func parseNTriplesSeq(sc *blockScanner, name string, o parseOpts) (*Graph, error) {
	b := NewBuilder(name)
	sink := builderSink{b}
	for {
		blk, ok := sc.next()
		if !ok {
			break
		}
		if blk.readErr != nil {
			return nil, fmt.Errorf("ntriples: read: %w", blk.readErr)
		}
		err := forEachLine(blk.data, blk.startLine, func(line string, lineNo int) error {
			return parseLineInto(sink, line, lineNo, o.strict)
		})
		if err != nil {
			return nil, err
		}
	}
	return b.Graph()
}

// parseNTriplesParallel fans blocks out to a worker pool and merges the
// batches through a ConcurrentBuilder. One goroutine scans blocks in
// order; workers parse them concurrently; the builder commits in block
// order, which guarantees deterministic IDs, and throttles workers that
// run more than a bounded number of blocks ahead of the commit frontier,
// which bounds the parsed-but-uncommitted memory.
func parseNTriplesParallel(sc *blockScanner, name string, o parseOpts) (*Graph, error) {
	cb := newConcurrentBuilder(name, o.workers)
	var stop atomic.Bool
	blocks := make(chan parseBlock, o.workers)
	go func() {
		defer close(blocks)
		for !stop.Load() {
			blk, ok := sc.next()
			if !ok {
				return
			}
			blocks <- blk
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < o.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bb := newBatchBuilder()
			var spare *parseBatch
			for blk := range blocks {
				batch := spare
				if batch == nil {
					batch = &parseBatch{}
				}
				if stop.Load() && blk.readErr == nil {
					// An earlier block already failed; any block still in
					// flight is later in the document, so its content can
					// never be committed. Skip the parse work.
					*batch = parseBatch{index: blk.index}
				} else {
					bb.parseBlockBatch(batch, blk, o.strict)
				}
				var ok bool
				if spare, ok = cb.commit(batch); !ok {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return cb.result()
}
