// Package core implements the alignment framework of Buneman & Staworko,
// "RDF Graph Alignment with Bisimulation" (PVLDB 2016), Sections 2–3:
// partitions represented by colors, the bisimulation partition-refinement
// engine, the Trivial, Deblank and Hybrid alignment methods, weighted
// partitions with propagation (§4.3, §4.5), and the evaluation metrics over
// alignments used in Section 5.
//
// A partition assigns every node a color (§2.2); two nodes are aligned when
// they have the same color. The bisimulation refinement recolors a node with
// the combined colors of its outbound (predicate, object) pairs (§3.2,
// equation 1); the color assigned to a node is conceptually a derivation
// tree, represented compactly as a DAG by hash-consing every color into a
// small integer (the "simple hashing technique" the paper alludes to).
package core

import (
	"fmt"
	"sort"
	"unsafe"

	"rdfalign/internal/rdf"
)

// Color identifies an equivalence class. Colors are produced by an Interner
// and are only meaningful relative to it; comparing colors from different
// interners is a bug.
type Color int32

// NoColor is an invalid color, useful as a sentinel.
const NoColor Color = -1

// ColorPair is the color image of an outbound edge: (λ(p), λ(o)) for an
// edge (p, o) ∈ out_G(n).
type ColorPair struct {
	P, O Color
}

// Interner hash-conses colors. Three constructions exist:
//
//   - Base(label): the color of a node label; all blank nodes share the one
//     blank base color (the initial partition ℓ_G of §2.2),
//   - Fresh(): a brand-new color equal only to itself (used by the trivial
//     partition for blank nodes and by enrichment for new clusters),
//   - Composite(prev, pairs): the refinement color
//     (λ(n), {(λ(p), λ(o)) | (p,o) ∈ out(n)}) of §3.2 equation (1). The
//     extended recolorings (extend.go) intern through it too, with their
//     in-edge and predicate-occurrence pairs tagged into the same set.
//
// Identical constructions yield identical Color values, so color equality
// is integer equality and each refinement iteration costs O(Σ deg·log deg).
//
// Composite signatures form one domain, interned by hash (sighash.go): the
// canonical (prev, pairs) form is hashed directly from the ColorPair slice
// — no byte-key serialisation, no allocation on lookup — and resolved
// through an open-addressed table whose hash-equal candidates are compared
// structurally against the entry table, so collisions cost a comparison,
// never a wrong answer. Colors are assigned in interning order, making
// colorings independent of the hash seed.
//
// Every color has one pointer-free 20-byte entry. Entries live in chunks
// that never move, so Fresh never copies the table and a *compositeEntry
// stays valid for the life of the interner; the garbage collector never
// scans them, and a storage-backed interner (NewInternerIn) draws them from
// its Storage together with the stored pair sets they reference.
//
// An Interner is not safe for concurrent mutation. Lookups (including the
// read-only probes of Composite on already-interned signatures) are safe
// concurrently with each other as long as no call allocates.
type Interner struct {
	// uris and literals key base colors by label value, one map per kind,
	// so lookups take Go's string-key map fast path.
	uris, literals map[string]Color
	table          sigTable
	blank          Color
	next           Color
	seed           uint64
	// entries is the source of truth for composite color structure: color
	// c's entry is entries[k][off] for (k, off) = entrySlot(c), the zero
	// entry for base and fresh colors. The hash table resolves into it for
	// collision checking, derivation trees are rendered from it, and tests
	// inspect the DAG through it.
	entries []*entryChunk
	// pairs stores the pair sets entries reference, so that interning a
	// new composite does not allocate per color.
	pairs chunkStore[ColorPair]
	// st is the storage entry chunks, store chunks and partition color
	// arrays come from; nil means the Go heap.
	st Storage
}

// compositeEntry remembers a color's structure. It holds no pointers, so
// its chunks may live outside the Go heap.
type compositeEntry struct {
	prev Color
	// ref locates the pair set in Interner.pairs.
	ref storeRef
	// composite is false for base and fresh colors, whose entry is zero.
	composite bool
}

// entryChunkBits sets the entry chunk size: 1,024 colors, 20 KiB. One
// chunk is all a small interner allocates, and a large one wastes at most
// one chunk's tail. A fixed power of two keeps a color's chunk and offset
// a shift and a mask away on the lookup path.
const entryChunkBits = 10

// entryChunk is one chunk of the entry table.
type entryChunk [1 << entryChunkBits]compositeEntry

// entrySlot locates color c's entry: offset off of chunk k.
func entrySlot(c Color) (k, off int) {
	return int(uint32(c) >> entryChunkBits), int(uint32(c) & (1<<entryChunkBits - 1))
}

// storeRef locates n elements at offset off of chunk chunk of a
// chunkStore. The zero value is the empty list.
type storeRef struct {
	chunk, off, n uint32
}

// storeChunkLen is the chunkStore chunk granularity in elements (32 KiB
// of pairs), small enough that a small interner stays small; a list longer
// than that gets a chunk of its own.
const storeChunkLen = 1 << 12

// chunkStore is a chunked append-only arena of a pointer-free element
// type. Chunks are allocated from a Storage (the Go heap when it is nil)
// and never moved or reallocated, so the views handed out stay valid
// forever. When the active chunk lacks room the rest of it is abandoned;
// that waste is bounded by the longest list stored.
type chunkStore[T any] struct {
	chunks [][]T
	used   int // elements used in the last chunk
}

// alloc reserves n zeroed elements, allocating a chunk from st when the
// active one lacks room.
func (cs *chunkStore[T]) alloc(st Storage, n int) storeRef {
	if n == 0 {
		return storeRef{}
	}
	k := len(cs.chunks) - 1
	if k < 0 || len(cs.chunks[k])-cs.used < n {
		cs.chunks = append(cs.chunks, allocChunk[T](st, max(storeChunkLen, n)))
		k++
		cs.used = 0
	}
	r := storeRef{chunk: uint32(k), off: uint32(cs.used), n: uint32(n)}
	cs.used += n
	return r
}

// add copies src into the store and returns its reference.
func (cs *chunkStore[T]) add(st Storage, src []T) storeRef {
	r := cs.alloc(st, len(src))
	copy(cs.view(r), src)
	return r
}

// view returns the stored elements r references. The slice is capped, so
// appending to it cannot overwrite a neighbour.
func (cs *chunkStore[T]) view(r storeRef) []T {
	if r.n == 0 {
		return nil
	}
	return cs.chunks[r.chunk][r.off : r.off+r.n : r.off+r.n]
}

// allocChunk allocates n zeroed elements of a pointer-free type T from st,
// as int32 words from AllocColors, or from the Go heap when st is nil. T
// must be at most 4-byte aligned.
func allocChunk[T any](st Storage, n int) []T {
	if st == nil {
		return make([]T, n)
	}
	var zero T
	words := st.AllocColors((n*int(unsafe.Sizeof(zero)) + 3) / 4)
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// NewInterner returns an empty interner with the default hash seed. The
// blank base color is pre-allocated so that it is stable across uses.
func NewInterner() *Interner {
	return NewInternerSeeded(sigSeedDefault)
}

// NewInternerSeeded is NewInterner with an explicit signature-hash seed.
// The seed perturbs hash-table placement only; the colors an
// interner assigns depend solely on the order of interning calls, so
// colorings are bit-identical across seeds (property-tested).
func NewInternerSeeded(seed uint64) *Interner {
	return newInterner(seed, nil)
}

// NewInternerIn returns an interner whose entries and stored pair sets —
// and the color arrays of partitions built on it — are allocated from st.
// A nil st is equivalent to NewInterner. The storage backend never changes
// the colors assigned; it only moves the arrays out of the Go heap.
func NewInternerIn(st Storage) *Interner {
	return newInterner(sigSeedDefault, st)
}

func newInterner(seed uint64, st Storage) *Interner {
	in := &Interner{
		uris:     make(map[string]Color),
		literals: make(map[string]Color),
		seed:     seed,
		st:       st,
	}
	in.blank = in.Fresh()
	return in
}

// allocColors allocates a color array through the interner's storage
// (the Go heap when the interner is not storage-backed).
func (in *Interner) allocColors(n int) []Color {
	return allocChunk[Color](in.st, n)
}

// spillDir returns the directory for external-merge spill runs, when the
// interner's storage enables spilling.
func (in *Interner) spillDir() (string, bool) {
	if in.st == nil {
		return "", false
	}
	return in.st.SpillDir()
}

// Size returns the number of colors allocated so far.
func (in *Interner) Size() int { return int(in.next) }

// Blank returns the shared base color of blank nodes.
func (in *Interner) Blank() Color { return in.blank }

// Fresh allocates a color equal only to itself. Its entry is already
// zero; a new chunk is allocated when the color starts one, and existing
// chunks never move.
func (in *Interner) Fresh() Color {
	c := in.next
	in.next++
	if _, off := entrySlot(c); off == 0 {
		in.entries = append(in.entries, &allocChunk[entryChunk](in.st, 1)[0])
	}
	return c
}

// slot returns color c's entry, whatever its kind. c must have been
// allocated by the interner.
func (in *Interner) slot(c Color) *compositeEntry {
	k, off := entrySlot(c)
	return &in.entries[k][off]
}

// entry returns the composite entry of c, or nil when c is not a composite
// color. The pointer stays valid for the life of the interner.
func (in *Interner) entry(c Color) *compositeEntry {
	if uint32(c) >= uint32(in.next) {
		return nil
	}
	if e := in.slot(c); e.composite {
		return e
	}
	return nil
}

// reserveBase presizes the label maps for the given numbers of URI and
// literal labels. A map that already holds colors is left as it is.
func (in *Interner) reserveBase(uris, literals int) {
	if len(in.uris) == 0 {
		in.uris = make(map[string]Color, uris)
	}
	if len(in.literals) == 0 {
		in.literals = make(map[string]Color, literals)
	}
}

// Base returns the color of a node label, allocating it on first use.
// All blank labels map to the shared blank color. Literal values are
// looked up in their own map, every other label kind in the URI map.
func (in *Interner) Base(l rdf.Label) Color {
	m := in.uris
	switch l.Kind {
	case rdf.Blank:
		return in.blank
	case rdf.Literal:
		m = in.literals
	}
	if c, ok := m[l.Value]; ok {
		return c
	}
	c := in.Fresh()
	m[l.Value] = c
	return c
}

// Composite returns the color (prev, set(pairs)). The pairs slice is sorted
// and deduplicated in place (callers pass scratch buffers), implementing the
// *set* of outbound pair colors from §3.2.
//
// Composite implements the derivation-tree semantics of §3.2–3.3: a color
// stands for the unfolding tree of a node, and "the unfolding halts" at
// stable subtrees (Example 3). Concretely, when prev is itself the
// composite of the same pair set, re-composing is a no-op and prev is
// returned unchanged. Without this collapse a node whose neighbourhood has
// stabilised would receive a syntactically new (but semantically equal)
// color every iteration, and frozen colors from an earlier refinement phase
// (deblank colors inside hybrid, §3.4) could never be re-joined — breaking
// the paper's identity Propagate((λTrivial,0)) ≡ (λHybrid,0) from §4.5.
func (in *Interner) Composite(prev Color, pairs []ColorPair) Color {
	sortPairs(pairs)
	pairs = dedupPairs(pairs)
	return in.compositeCanonical(prev, pairs)
}

// stablePairs reports the stable-tree collapse condition: prev is itself
// the composite of exactly pairs.
func (in *Interner) stablePairs(prev Color, pairs []ColorPair) bool {
	e := in.entry(prev)
	return e != nil && pairsEqual(in.pairs.view(e.ref), pairs)
}

// compositeCanonical is Composite for pair sets that are already sorted and
// deduplicated (the worklist gather phases canonicalise in place).
func (in *Interner) compositeCanonical(prev Color, pairs []ColorPair) Color {
	c, h, ok := in.resolve(prev, pairs)
	if ok {
		return c
	}
	return in.mint(h, prev, in.pairs.add(in.st, pairs))
}

// resolve looks the canonical signature (prev, pairs) up without
// allocating: the stable-tree collapse returns prev, a table hit the
// interned color. On a miss it returns the signature's hash for mint.
func (in *Interner) resolve(prev Color, pairs []ColorPair) (c Color, h uint64, ok bool) {
	if in.stablePairs(prev, pairs) {
		return prev, 0, true
	}
	h = sigHashPairs(in.seed, prev, pairs)
	c, ok = in.lookupPairs(h, prev, pairs)
	return c, h, ok
}

// mint allocates the next color for a signature resolve missed: prev and
// the pair set stored at ref, under hash h.
func (in *Interner) mint(h uint64, prev Color, ref storeRef) Color {
	c := in.Fresh()
	in.table.insert(h, c)
	*in.slot(c) = compositeEntry{prev: prev, ref: ref, composite: true}
	return c
}

func pairsEqual(a, b []ColorPair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsComposite reports whether c was produced by Composite, and if so
// returns its parts: the stored pair set, with an extended color's tagged
// pairs and marker as recolorOpts interned them. The returned slice must
// not be modified.
func (in *Interner) IsComposite(c Color) (prev Color, pairs []ColorPair, ok bool) {
	e := in.entry(c)
	if e == nil {
		return 0, nil, false
	}
	return e.prev, in.pairs.view(e.ref), true
}

// DerivationString renders the derivation DAG rooted at c up to the given
// depth, for debugging and for the worked-example tests that mirror the
// paper's Figures 4–6. An outbound pair renders as p→o; an extended
// color's in-edge as s→p→• and predicate occurrence as s→•→o, with •
// standing for the node itself. The marker pair is omitted.
func (in *Interner) DerivationString(c Color, depth int) string {
	if depth <= 0 {
		return "…"
	}
	e := in.entry(c)
	if e == nil {
		return fmt.Sprintf("c%d", c)
	}
	s := "(" + in.DerivationString(e.prev, depth-1) + " {"
	sep := ""
	for _, pr := range in.pairs.view(e.ref) {
		var t string
		switch {
		case pr == extMarker:
			continue
		case pr.O < 0: // in-edge (λ(p), ^λ(s))
			t = in.DerivationString(^pr.O, depth-1) + "→" + in.DerivationString(pr.P, depth-1) + "→•"
		case pr.P < 0: // predicate occurrence (^λ(s), λ(o))
			t = in.DerivationString(^pr.P, depth-1) + "→•→" + in.DerivationString(pr.O, depth-1)
		default:
			t = in.DerivationString(pr.P, depth-1) + "→" + in.DerivationString(pr.O, depth-1)
		}
		s += sep + t
		sep = " "
	}
	return s + "})"
}

func sortPairs(pairs []ColorPair) {
	// Out-degrees are small in RDF data; insertion sort avoids the
	// closure and interface overhead of sort.Slice on the hot path.
	if len(pairs) <= 16 {
		for i := 1; i < len(pairs); i++ {
			for j := i; j > 0 && pairLess(pairs[j], pairs[j-1]); j-- {
				pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
			}
		}
		return
	}
	sort.Slice(pairs, func(i, j int) bool { return pairLess(pairs[i], pairs[j]) })
}

func pairLess(a, b ColorPair) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	return a.O < b.O
}

func dedupPairs(pairs []ColorPair) []ColorPair {
	if len(pairs) < 2 {
		return pairs
	}
	out := pairs[:1]
	for _, pr := range pairs[1:] {
		if pr != out[len(out)-1] {
			out = append(out, pr)
		}
	}
	return out
}
