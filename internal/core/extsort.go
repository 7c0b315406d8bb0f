package core

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"rdfalign/internal/rdf"
)

// This file implements the out-of-core variant of a worklist refinement
// round (Engine.worklist, unweighted and weighted alike): signature
// grouping by external merge sort instead of the in-heap hash table,
// engaged when the session storage is spillable (Storage.SpillDir), the
// recoloring is the default outbound one, and the dirty frontier is large.
//
// A sequential round walks the dirty frontier in order, canonicalises
// each node's outbound color pairs and interns the signature (prev,
// pairs): a hash-table hit reuses the existing color, a miss allocates
// the next color. The out-of-core round computes the identical result
// without ever holding the round's unseen signatures in memory:
//
//	pass A  sequential scan of the frontier in the same order. Signatures
//	        already known to the interner (the stable-tree collapse and
//	        hash-table hits — the steady state of a fixpoint) resolve
//	        exactly as before. Unseen signatures are appended to a bounded
//	        run buffer as (key, position) records and flushed to sorted
//	        spill files when the buffer fills.
//	merge   a k-way merge of the sorted runs groups equal keys. Each
//	        distinct key is stored once (into the interner's pair store)
//	        together with the minimum frontier position at which it
//	        occurred.
//	assign  distinct keys are interned in ascending minimum-position
//	        order. The sequential round allocates a new color the first
//	        time a signature occurs, i.e. in exactly that order, so the
//	        color values match the sequential round number for number.
//
// Equal keys collapse to one color in both engines, hits resolve to the
// same colors, and new colors are numbered identically, so the round's
// change set is equal as a set — and change application, the grouping-
// equivalence check and the next frontier are all order-independent — so
// the refinement is bit-identical to the in-memory engines (property-
// tested against the in-memory worklist).
//
// Memory: the run buffer is bounded (extSpillRunBytes), the merge holds
// one record per run, and what survives the round — the distinct new
// signatures — is exactly what the interner must store anyway.

// extMergeThreshold is the minimum frontier size for the external-merge
// round; smaller frontiers (the deep tail of a fixpoint) stay on the
// in-memory paths. A variable so tests can force tiny frontiers through
// the merge path.
var extMergeThreshold = 4096

// extSpillRunBytes bounds the encoded size of one in-memory run. A
// variable so tests can force multi-run merges with tiny runs.
var extSpillRunBytes = 8 << 20

// Spill records are encoded as
//
//	u32 LE key length | key | u32 LE frontier position
//
// with key = big-endian u32 prev followed by big-endian u32 P, O per
// pair. Colors are non-negative, so bytes.Compare on keys is a total
// order in which equal keys — same prev, same pair list — and only equal
// keys compare equal, which is all grouping needs.

// extSorter accumulates spill records and replays them grouped by key.
type extSorter struct {
	dir    string
	buf    []byte // encoded records of the current run
	offs   []int  // record start offsets within buf
	files  []*os.File
	rerr   error // first I/O error; checked at merge time
	keyBuf []byte
}

// add appends one unseen signature to the current run, flushing the run
// to disk when full.
func (sp *extSorter) add(pos uint32, prev Color, pairs []ColorPair) {
	if sp.rerr != nil {
		return
	}
	need := 4 + 4 + 8*len(pairs) + 4
	if len(sp.buf)+need > extSpillRunBytes && len(sp.offs) > 0 {
		sp.flush()
	}
	sp.offs = append(sp.offs, len(sp.buf))
	sp.buf = binary.LittleEndian.AppendUint32(sp.buf, uint32(4+8*len(pairs)))
	sp.buf = binary.BigEndian.AppendUint32(sp.buf, uint32(prev))
	for _, pr := range pairs {
		sp.buf = binary.BigEndian.AppendUint32(sp.buf, uint32(pr.P))
		sp.buf = binary.BigEndian.AppendUint32(sp.buf, uint32(pr.O))
	}
	sp.buf = binary.LittleEndian.AppendUint32(sp.buf, pos)
}

// record returns the key and position of the record starting at off.
func (sp *extSorter) record(off int) (key []byte, pos uint32) {
	klen := int(binary.LittleEndian.Uint32(sp.buf[off:]))
	key = sp.buf[off+4 : off+4+klen]
	pos = binary.LittleEndian.Uint32(sp.buf[off+4+klen:])
	return key, pos
}

// sortRun orders the current run by (key, position). Positions within a
// run are unique, so the order is total and the run deterministic.
func (sp *extSorter) sortRun() {
	sort.Slice(sp.offs, func(i, j int) bool {
		ki, pi := sp.record(sp.offs[i])
		kj, pj := sp.record(sp.offs[j])
		if c := bytes.Compare(ki, kj); c != 0 {
			return c < 0
		}
		return pi < pj
	})
}

// flush sorts the current run and writes it to an unlinked temporary
// file in the spill directory, record by record in sorted order.
func (sp *extSorter) flush() {
	sp.sortRun()
	f, err := os.CreateTemp(sp.dir, "rdfalign-extsort-*")
	if err != nil {
		sp.rerr = err
		return
	}
	// Unlink immediately: the run lives only through the descriptor.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		sp.rerr = err
		return
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, off := range sp.offs {
		klen := int(binary.LittleEndian.Uint32(sp.buf[off:]))
		if _, err := w.Write(sp.buf[off : off+4+klen+4]); err != nil {
			f.Close()
			sp.rerr = err
			return
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		sp.rerr = err
		return
	}
	sp.files = append(sp.files, f)
	sp.buf = sp.buf[:0]
	sp.offs = sp.offs[:0]
}

// cleanup closes every run file (already unlinked at creation).
func (sp *extSorter) cleanup() {
	for _, f := range sp.files {
		f.Close()
	}
	sp.files = nil
}

// group replays every spilled record grouped by key: emit is called once
// per record, with first reporting whether the record starts a new
// distinct key group. Records arrive in ascending key order; within one
// run in ascending position order.
func (sp *extSorter) group(emit func(first bool, key []byte, pos uint32)) error {
	if sp.rerr != nil {
		return sp.rerr
	}
	if len(sp.files) == 0 {
		// Everything fit in one in-memory run: no file I/O at all.
		sp.sortRun()
		for i, off := range sp.offs {
			key, pos := sp.record(off)
			first := i == 0
			if !first {
				prev, _ := sp.record(sp.offs[i-1])
				first = !bytes.Equal(prev, key)
			}
			emit(first, key, pos)
		}
		return nil
	}
	if len(sp.offs) > 0 {
		sp.flush()
		if sp.rerr != nil {
			return sp.rerr
		}
	}
	h := make(runHeap, 0, len(sp.files))
	for i, f := range sp.files {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		r := &runReader{idx: i, br: bufio.NewReaderSize(f, 1<<20)}
		ok, err := r.next()
		if err != nil {
			return err
		}
		if ok {
			h = append(h, r)
		}
	}
	heap.Init(&h)
	sp.keyBuf = sp.keyBuf[:0]
	firstRecord := true
	for len(h) > 0 {
		r := h[0]
		first := firstRecord || !bytes.Equal(sp.keyBuf, r.key)
		firstRecord = false
		if first {
			sp.keyBuf = append(sp.keyBuf[:0], r.key...)
		}
		emit(first, r.key, r.pos)
		ok, err := r.next()
		if err != nil {
			return err
		}
		if ok {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}

// runReader streams one sorted spill run.
type runReader struct {
	idx int
	br  *bufio.Reader
	key []byte
	pos uint32
	len [4]byte
}

// next reads one record; ok is false at a clean end of the run.
func (r *runReader) next() (ok bool, err error) {
	if _, err := io.ReadFull(r.br, r.len[:]); err != nil {
		if err == io.EOF {
			return false, nil
		}
		return false, err
	}
	klen := int(binary.LittleEndian.Uint32(r.len[:]))
	if cap(r.key) < klen {
		r.key = make([]byte, klen)
	}
	r.key = r.key[:klen]
	if _, err := io.ReadFull(r.br, r.key); err != nil {
		return false, fmt.Errorf("core: truncated spill run: %w", err)
	}
	if _, err := io.ReadFull(r.br, r.len[:]); err != nil {
		return false, fmt.Errorf("core: truncated spill run: %w", err)
	}
	r.pos = binary.LittleEndian.Uint32(r.len[:])
	return true, nil
}

// runHeap is a min-heap of run heads ordered by (key, run index), making
// the merge deterministic.
type runHeap []*runReader

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if c := bytes.Compare(h[i].key, h[j].key); c != 0 {
		return c < 0
	}
	return h[i].idx < h[j].idx
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// extMergeRound runs one worklist round with external-merge signature
// grouping, appending the round's changes to changes. dir is the spill
// directory for sorted runs.
func extMergeRound(g *rdf.Graph, cur *Partition, dirty []rdf.NodeID, changes []change, dir string) ([]change, error) {
	in := cur.in
	colors := cur.colors
	sp := &extSorter{dir: dir}
	defer sp.cleanup()

	// Pass A: sequential scan in frontier order. Known signatures resolve
	// against the interner exactly as the in-memory round does; unseen
	// signatures spill. A signature two frontier nodes share is unseen for
	// both (the table is not touched during the scan) — the merge groups
	// them back together.
	var scratch []ColorPair
	for i, n := range dirty {
		scratch = scratch[:0]
		for _, e := range g.Out(n) {
			scratch = append(scratch, ColorPair{P: colors[e.P], O: colors[e.O]})
		}
		sortPairs(scratch)
		pairs := dedupPairs(scratch)
		prev := colors[n]
		if c, _, ok := in.resolve(prev, pairs); ok {
			if c != prev {
				changes = append(changes, change{n: n, old: prev, new: c})
			}
			continue
		}
		sp.add(uint32(i), prev, pairs)
	}

	// Merge: collect each distinct new signature once — pairs stored into
	// the interner's (storage-backed) pair store — with its minimum
	// frontier position, and one pending change per occurrence. A new
	// signature always yields a fresh color, so every occurrence changes.
	type newSig struct {
		minPos uint32
		seq    int32 // index into sigs, for the sort's tiebreak-free order
		prev   Color
		pairs  storeRef
		color  Color
	}
	var sigs []newSig
	pending := len(changes) // changes[pending:] carry sig indexes in .new
	err := sp.group(func(first bool, key []byte, pos uint32) {
		if first {
			prev := Color(binary.BigEndian.Uint32(key))
			npairs := (len(key) - 4) / 8
			scratch = scratch[:0]
			for k := 0; k < npairs; k++ {
				scratch = append(scratch, ColorPair{
					P: Color(binary.BigEndian.Uint32(key[4+8*k:])),
					O: Color(binary.BigEndian.Uint32(key[8+8*k:])),
				})
			}
			sigs = append(sigs, newSig{minPos: pos, seq: int32(len(sigs)), prev: prev, pairs: in.pairs.add(in.st, scratch)})
		}
		s := &sigs[len(sigs)-1]
		if pos < s.minPos {
			s.minPos = pos
		}
		n := dirty[pos]
		changes = append(changes, change{n: n, old: colors[n], new: Color(s.seq)})
	})
	if err != nil {
		return nil, err
	}

	// Assign: fresh colors in ascending minimum-position order — the order
	// the sequential round first meets each signature — then resolve the
	// pending changes. byMin maps position order back to key order.
	byMin := make([]int32, len(sigs))
	for i := range byMin {
		byMin[i] = int32(i)
	}
	sort.Slice(byMin, func(i, j int) bool { return sigs[byMin[i]].minPos < sigs[byMin[j]].minPos })
	for _, si := range byMin {
		s := &sigs[si]
		s.color = in.mint(sigHashPairs(in.seed, s.prev, in.pairs.view(s.pairs)), s.prev, s.pairs)
	}
	for j := pending; j < len(changes); j++ {
		changes[j].new = sigs[changes[j].new].color
	}
	return changes, nil
}
