package rdf

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"rdfalign/internal/par"
)

// This file implements N-Triples serialisation. Output is deterministic
// and canonical: triples are emitted in an order that is a fixpoint of
// re-parsing (see canonicalOrder), so serialising, parsing and
// serialising again is byte-identical. It is also byte-preserving: label
// bytes that need no escaping are copied through verbatim (including
// invalid UTF-8 sequences a lax parse admitted), so parse → write → parse
// is lossless. WithWriteWorkers enables a parallel fast path that formats
// chunks of the triple list concurrently and writes them in order,
// producing output byte-identical to the sequential writer.

// WriteOption configures WriteNTriples.
type WriteOption func(*writeOpts)

type writeOpts struct {
	workers int
	chunk   int
}

// defaultWriteChunk is the number of triples formatted per parallel chunk.
const defaultWriteChunk = 16384

// WithWriteWorkers sets the number of formatting workers: values above 1
// enable the parallel fast path, 0 and 1 select the sequential writer, and
// negative values use GOMAXPROCS. Output bytes are identical for every
// worker count.
func WithWriteWorkers(n int) WriteOption {
	return func(o *writeOpts) { o.workers = n }
}

// withWriteChunkSize overrides the parallel chunk size so tests can force
// the multi-chunk path on small graphs.
func withWriteChunkSize(n int) WriteOption {
	return func(o *writeOpts) { o.chunk = n }
}

// ntSink is the writer interface the formatting core targets: both
// *bufio.Writer (sequential path) and *bytes.Buffer (parallel chunk
// buffers) satisfy it. Errors are sticky in bufio.Writer and impossible in
// bytes.Buffer, so the core ignores them and the driver checks Flush.
type ntSink interface {
	WriteByte(byte) error
	WriteString(string) (int, error)
}

// WriteNTriples serialises g as N-Triples. Blank nodes are written as
// _:bN where N is the node's canonical first-occurrence rank, and triples
// are emitted in the canonical order of canonicalOrder, which makes the
// serialisation a parse fixpoint: parsing the output and serialising the
// result reproduces the output byte-for-byte. Output is deterministic and
// independent of the worker count.
func WriteNTriples(w io.Writer, g *Graph, opts ...WriteOption) error {
	o := writeOpts{workers: 1, chunk: defaultWriteChunk}
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 0 {
		o.workers = runtime.GOMAXPROCS(0)
	}
	if o.chunk < 1 {
		o.chunk = defaultWriteChunk
	}
	var seq tripleSeq
	var rank []NodeID
	if identityCanonical(g) {
		seq.index, seq.edges = g.outCSR()
	} else {
		seq.ts, rank, _ = canonicalOrder(g)
	}
	if o.workers > 1 && seq.len() > o.chunk {
		return writeNTriplesParallel(w, g, seq, rank, o)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	writeTripleRange(bw, g, seq, 0, seq.len(), rank)
	return bw.Flush()
}

// identityCanonical reports whether the graph's stored triple order is
// already the canonical emission order under the identity renumbering —
// that is, the first occurrence of every node in the (S, P, O)-sorted
// triple stream is exactly its own ID. Graphs built by parsing or loaded
// from snapshots always satisfy this (the parser assigns IDs in first-
// occurrence order and the freeze sort is a parse fixpoint), which lets
// the writer stream straight from the CSR without listing the triples or
// building a rank permutation. The scan is allocation-free: having
// only ever granted rank next to node next, the seen set is always the
// prefix [0, next), so "unseen" is the single comparison n >= next.
func identityCanonical(g *Graph) bool {
	next := NodeID(0)
	ok := true
	g.EachTriple(func(t Triple) bool {
		for _, n := range [3]NodeID{t.S, t.P, t.O} {
			if n >= next {
				if n != next {
					ok = false
					return false
				}
				next++
			}
		}
		return true
	})
	return ok
}

// tripleSeq is the triple stream the formatting core iterates: either an
// explicit reordered list (ts non-nil, the canonicalOrder fall-back) or
// the graph's out-CSR in stored order (the identity-canonical fast path,
// which lists nothing; an edited graph's CSR is compacted once for it).
type tripleSeq struct {
	ts    []Triple
	index []int32
	edges []Edge
}

func (s tripleSeq) len() int {
	if s.ts != nil {
		return len(s.ts)
	}
	return len(s.edges)
}

// each calls fn for triples [lo, hi) of the sequence. On the CSR path the
// starting subject is found by binary search, so parallel chunk workers
// can start mid-stream in O(log n).
func (s tripleSeq) each(lo, hi int, fn func(Triple)) {
	if s.ts != nil {
		for _, t := range s.ts[lo:hi] {
			fn(t)
		}
		return
	}
	sub := sort.Search(len(s.index)-1, func(i int) bool { return int(s.index[i+1]) > lo })
	for i := lo; i < hi; i++ {
		for int(s.index[sub+1]) <= i {
			sub++
		}
		e := s.edges[i]
		fn(Triple{S: NodeID(sub), P: e.P, O: e.O})
	}
}

// maxCanonIters bounds the canonical-order fixpoint iteration. Empirical
// convergence on randomised graphs is ≤ 5 rounds; graphs already in
// canonical form (anything produced by parsing) exit after the first,
// sort-free round.
const maxCanonIters = 64

// canonicalOrder computes the canonical emission order: a triple ordering
// and node renumbering such that re-parsing the serialisation assigns
// every node the ID rank[n] and sorts the triples back into exactly this
// order. It iterates "renumber by first occurrence, re-sort" to a
// fixpoint: at the fixpoint, rank equals the first-occurrence sequence of
// the order and the order is sorted under rank — the two properties that
// make the serialisation parse-stable. The returned flag reports whether
// the fixpoint was reached (never observed false; the iteration is capped
// at maxCanonIters as a defensive bound, and an uncoverged order is still
// deterministic, just not parse-stable).
func canonicalOrder(g *Graph) ([]Triple, []NodeID, bool) {
	ts := g.tripleList()
	n := g.NumNodes()
	rank := make([]NodeID, n)
	for i := range rank {
		rank[i] = NodeID(i)
	}
	for iter := 0; iter < maxCanonIters; iter++ {
		// First-occurrence ranks under the current emission order.
		newRank := make([]NodeID, n)
		for i := range newRank {
			newRank[i] = -1
		}
		next := NodeID(0)
		for _, t := range ts {
			if newRank[t.S] < 0 {
				newRank[t.S] = next
				next++
			}
			if newRank[t.P] < 0 {
				newRank[t.P] = next
				next++
			}
			if newRank[t.O] < 0 {
				newRank[t.O] = next
				next++
			}
		}
		// Isolated nodes never reach the output; give them the remaining
		// ranks in ID order so the permutation is total and deterministic.
		for i := range newRank {
			if newRank[i] < 0 {
				newRank[i] = next
				next++
			}
		}
		stable := true
		for i := range newRank {
			if newRank[i] != rank[i] {
				stable = false
				break
			}
		}
		if stable {
			return ts, rank, true
		}
		rank = newRank
		sort.Slice(ts, func(i, j int) bool {
			a, b := ts[i], ts[j]
			if rank[a.S] != rank[b.S] {
				return rank[a.S] < rank[b.S]
			}
			if rank[a.P] != rank[b.P] {
				return rank[a.P] < rank[b.P]
			}
			return rank[a.O] < rank[b.O]
		})
	}
	return ts, rank, false
}

// FormatNTriples returns the N-Triples serialisation as a string.
func FormatNTriples(g *Graph) string {
	var sb strings.Builder
	if err := WriteNTriples(&sb, g); err != nil {
		// strings.Builder never fails; any error is a bug.
		panic(err)
	}
	return sb.String()
}

// writeNTriplesParallel formats fixed-size chunks of the triple list on a
// par.Ordered pool and writes them strictly in chunk order, so the output
// bytes match the sequential writer exactly. A chunk buffer is recycled
// once written; the pool's bound on unwritten chunks bounds the memory.
func writeNTriplesParallel(w io.Writer, g *Graph, seq tripleSeq, rank []NodeID, o writeOpts) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	pos := 0
	next := func() (int, bool) {
		if pos >= seq.len() {
			return 0, false
		}
		pos += o.chunk
		return pos - o.chunk, true
	}
	format := func(_ int, lo int, buf *bytes.Buffer) {
		hi := min(lo+o.chunk, seq.len())
		// Size the buffer from the chunk's label bytes, with room for the
		// next chunks the slot holds: grown by doubling, it would allocate
		// about four times the chunk it ends up holding.
		n := 0
		seq.each(lo, hi, func(t Triple) {
			n += len(g.Label(t.S).Value) + len(g.Label(t.P).Value) + len(g.Label(t.O).Value) + 12
		})
		if buf.Cap() < n {
			*buf = *bytes.NewBuffer(make([]byte, 0, n+n/4))
		}
		buf.Reset()
		writeTripleRange(buf, g, seq, lo, hi, rank)
	}
	write := func(buf *bytes.Buffer) error {
		_, err := bw.Write(buf.Bytes())
		return err
	}
	if err := par.Ordered(o.workers, next, format, write); err != nil {
		return err
	}
	return bw.Flush()
}

// writeTripleRange formats triples [lo, hi) of the sequence; blank labels
// come from the canonical rank permutation (nil means the identity).
func writeTripleRange(w ntSink, g *Graph, seq tripleSeq, lo, hi int, rank []NodeID) {
	seq.each(lo, hi, func(t Triple) {
		writeTerm(w, g, t.S, rank)
		w.WriteByte(' ')
		writeTerm(w, g, t.P, rank)
		w.WriteByte(' ')
		writeTerm(w, g, t.O, rank)
		w.WriteString(" .\n")
	})
}

func writeTerm(w ntSink, g *Graph, n NodeID, rank []NodeID) {
	l := g.Label(n)
	switch l.Kind {
	case URI:
		w.WriteByte('<')
		escapeInto(w, l.Value, true)
		w.WriteByte('>')
	case Literal:
		w.WriteByte('"')
		escapeInto(w, l.Value, false)
		w.WriteByte('"')
	default:
		r := n
		if rank != nil {
			r = rank[n]
		}
		w.WriteString("_:b")
		w.WriteString(strconv.FormatInt(int64(r), 10))
	}
}

// escapeInto writes s with N-Triples escaping; the Turtle writer uses it
// too. Every byte that needs an escape is ASCII, so the scan works
// bytewise: maximal clean spans are copied through with a single
// WriteString, which both avoids per-rune work and preserves the exact
// input bytes (including invalid UTF-8 that a lax parse admitted — the
// round trip is lossless at the byte level). Literals use the ECHAR
// escapes \\, \n, \r, \t and \" where they exist; IRIs use only UCHAR
// escapes (\u005C for a backslash), the one form the W3C IRIREF rule
// admits.
func escapeInto(w ntSink, s string, iri bool) {
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		var esc string
		if iri {
			if !iriEscaped[c] {
				continue
			}
		} else {
			if c >= 0x20 && c != '\\' && c != '"' {
				continue
			}
			switch c {
			case '\\':
				esc = `\\`
			case '\n':
				esc = `\n`
			case '\r':
				esc = `\r`
			case '\t':
				esc = `\t`
			case '"':
				esc = `\"`
			}
		}
		w.WriteString(s[start:i])
		if esc != "" {
			w.WriteString(esc)
		} else {
			writeHex4(w, c)
		}
		start = i + 1
	}
	w.WriteString(s[start:])
}

// iriEscaped marks the IRI bytes escapeInto escapes: everything the
// N-Triples reader cannot read back raw ('<', '>', '"', '\\', spaces and
// controls) and the '{', '}', '|', '^' and '`' that the Turtle reader
// rejects raw, so that WriteNTriples output is valid Turtle.
var iriEscaped = func() (t [256]bool) {
	for c := 0; c <= 0x20; c++ {
		t[c] = true
	}
	for _, c := range []byte("<>\"\\{}|^`") {
		t[c] = true
	}
	return t
}()

const hexDigits = "0123456789ABCDEF"

// writeHex4 writes the \uXXXX escape of an ASCII byte.
func writeHex4(w ntSink, c byte) {
	w.WriteString(`\u00`)
	w.WriteByte(hexDigits[c>>4])
	w.WriteByte(hexDigits[c&0xF])
}
