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
//     (λ(n), {(λ(p), λ(o)) | (p,o) ∈ out(n)}) of §3.2 equation (1).
//
// Identical constructions yield identical Color values, so color equality
// is integer equality and each refinement iteration costs O(Σ deg·log deg).
//
// Composite signatures are interned by hash (sighash.go): the canonical
// (prev, lists) form is hashed directly from the ColorPair slices — no
// byte-key serialisation, no allocation on lookup — and resolved through an
// open-addressed table whose hash-equal candidates are compared structurally
// against the composites store, so collisions cost a comparison, never a
// wrong answer. Colors are assigned in interning order, making colorings
// independent of the hash seed.
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
	// composites is the source of truth for composite color structure,
	// indexed by Color (kind sigKindNone for base/fresh colors): the hash
	// table resolves into it for collision checking, derivation trees are
	// rendered from it, and tests inspect the DAG through it.
	composites []compositeEntry
	// pairs backs the stored pair lists of composite entries so that
	// interning a new composite does not allocate per color. The store is
	// chunked — stored lists are capped sub-slices of chunks that never
	// move — and draws its chunks from st when the interner is
	// storage-backed (NewInternerIn), keeping the bulk of the interner's
	// footprint out of the Go heap in out-of-core mode.
	pairs pairStore
	// st is the session storage color arrays and pair chunks come from;
	// nil means the Go heap. The composites table above deliberately stays
	// on the heap regardless: its entries hold Go slice headers, which
	// must never live in memory the garbage collector does not trace.
	st Storage
}

// compositeEntry kinds. sigKindPairs entries come from Composite (one
// outbound pair set, stored in pairs); sigKindLists entries come from
// CompositeLists (positional pair lists: out/in/pred by the §3.3/§5.1
// conventions, stored in lists). The kinds intern disjointly, mirroring the
// historical 'P'/'L' key tags.
const (
	sigKindNone  uint8 = 0
	sigKindPairs uint8 = 'P'
	sigKindLists uint8 = 'L'
)

// compositeEntry remembers a composite color's structure.
type compositeEntry struct {
	prev  Color
	kind  uint8
	pairs []ColorPair   // sigKindPairs: the outbound pair set
	lists [][]ColorPair // sigKindLists: positional pair lists
}

// outPairs returns the entry's first (outbound) pair list.
func (e *compositeEntry) outPairs() []ColorPair {
	if e.kind == sigKindPairs {
		return e.pairs
	}
	return e.lists[0]
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
	in := &Interner{
		uris:     make(map[string]Color),
		literals: make(map[string]Color),
		seed:     seed,
	}
	in.blank = in.Fresh()
	return in
}

// NewInternerIn returns an interner whose stored pair lists — and the
// color arrays of partitions built on it — are allocated from st. A nil
// st is equivalent to NewInterner. The storage backend never changes the
// colors assigned; it only moves the arrays out of the Go heap.
func NewInternerIn(st Storage) *Interner {
	in := NewInterner()
	in.st = st
	in.pairs.st = st
	return in
}

// allocColors allocates a color array through the interner's storage
// (the Go heap when the interner is not storage-backed).
func (in *Interner) allocColors(n int) []Color {
	if in.st == nil {
		return make([]Color, n)
	}
	return in.st.AllocColors(n)
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

// Fresh allocates a color equal only to itself.
func (in *Interner) Fresh() Color {
	c := in.next
	in.next++
	if int(c) >= len(in.composites) {
		grown := make([]compositeEntry, int(c)+1+len(in.composites))
		copy(grown, in.composites)
		in.composites = grown
	}
	return c
}

// entry returns the composite entry of c, or nil when c is not a composite
// color. The pointer is invalidated by the next Fresh call.
func (in *Interner) entry(c Color) *compositeEntry {
	if int(c) >= len(in.composites) {
		return nil
	}
	if e := &in.composites[c]; e.kind != sigKindNone {
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

// stablePairs reports the stable-tree collapse condition for plain
// composites: prev is itself a single-list composite of exactly pairs.
func (in *Interner) stablePairs(prev Color, pairs []ColorPair) bool {
	e := in.entry(prev)
	if e == nil {
		return false
	}
	switch e.kind {
	case sigKindPairs:
		return pairsEqual(e.pairs, pairs)
	case sigKindLists:
		return len(e.lists) == 1 && pairsEqual(e.lists[0], pairs)
	}
	return false
}

// compositeCanonical is Composite for pair sets that are already sorted and
// deduplicated (the worklist gather phases canonicalise in place).
func (in *Interner) compositeCanonical(prev Color, pairs []ColorPair) Color {
	if in.stablePairs(prev, pairs) {
		return prev
	}
	h := sigHashPairs(in.seed, prev, pairs)
	return in.internPairs(h, prev, pairs)
}

// internPairs resolves the plain-composite signature (prev, pairs) under
// hash h, allocating a new color on a miss. Split from compositeCanonical
// so the forced-collision tests can intern distinct signatures under one
// hash and exercise the structural-comparison fallback directly.
func (in *Interner) internPairs(h uint64, prev Color, pairs []ColorPair) Color {
	if c, ok := in.lookupPairs(h, prev, pairs); ok {
		return c
	}
	c := in.Fresh()
	in.table.insert(h, c)
	in.composites[c] = compositeEntry{prev: prev, kind: sigKindPairs, pairs: in.storePairs(pairs)}
	return c
}

// storePairs copies pairs into the interner's pair store and returns the
// stored view. The returned slice is never appended to, so later store
// growth cannot alias it.
func (in *Interner) storePairs(pairs []ColorPair) []ColorPair {
	return in.pairs.store(pairs)
}

// pairChunkLen is the pair-store chunk granularity (512 KiB of pairs).
const pairChunkLen = 1 << 16

// pairStore is a chunked append-only arena for stored pair lists. Chunks
// are allocated from st (the Go heap when st is nil) and never moved or
// reallocated, so the capped sub-slices handed out stay valid forever. A
// list longer than a chunk gets a dedicated chunk; the abandoned tail of
// the previous chunk is bounded by the longest list stored.
type pairStore struct {
	st  Storage
	cur []ColorPair // active chunk; appended to in place, never grown
}

func (ps *pairStore) store(src []ColorPair) []ColorPair {
	n := len(src)
	if n == 0 {
		return nil
	}
	if cap(ps.cur)-len(ps.cur) < n {
		size := pairChunkLen
		if n > size {
			size = n
		}
		if ps.st == nil {
			ps.cur = make([]ColorPair, 0, size)
		} else {
			ps.cur = ps.st.AllocPairs(size)[:0]
		}
	}
	lo := len(ps.cur)
	ps.cur = append(ps.cur, src...)
	return ps.cur[lo:len(ps.cur):len(ps.cur)]
}

// CompositeLists is the general composite over any number of pair lists
// (the slots are positional: callers fix a convention such as out/in/pred).
// Each list is canonicalised independently; the stable-tree collapse
// applies when prev carries the same number of lists with equal contents.
func (in *Interner) CompositeLists(prev Color, lists ...[]ColorPair) Color {
	for i := range lists {
		sortPairs(lists[i])
		lists[i] = dedupPairs(lists[i])
	}
	if e := in.entry(prev); e != nil {
		switch e.kind {
		case sigKindPairs:
			if len(lists) == 1 && pairsEqual(e.pairs, lists[0]) {
				return prev
			}
		case sigKindLists:
			if listsEqual(e.lists, lists) {
				return prev
			}
		}
	}
	h := sigHashLists(in.seed, prev, lists)
	if c, ok := in.lookupLists(h, prev, lists); ok {
		return c
	}
	c := in.Fresh()
	in.table.insert(h, c)
	stored := make([][]ColorPair, len(lists))
	for i, pairs := range lists {
		stored[i] = in.storePairs(pairs)
	}
	in.composites[c] = compositeEntry{prev: prev, kind: sigKindLists, lists: stored}
	return c
}

func listsEqual(a, b [][]ColorPair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !pairsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
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

// IsComposite reports whether c was produced by Composite (or the first
// list of a CompositeLists color), and if so returns its parts. The
// returned slice must not be modified.
func (in *Interner) IsComposite(c Color) (prev Color, pairs []ColorPair, ok bool) {
	e := in.entry(c)
	if e == nil {
		return 0, nil, false
	}
	return e.prev, e.outPairs(), true
}

// DerivationString renders the derivation DAG rooted at c up to the given
// depth, for debugging and for the worked-example tests that mirror the
// paper's Figures 4–6.
func (in *Interner) DerivationString(c Color, depth int) string {
	if depth <= 0 {
		return "…"
	}
	e := in.entry(c)
	if e == nil {
		return fmt.Sprintf("c%d", c)
	}
	s := "(" + in.DerivationString(e.prev, depth-1) + " {"
	for i, pr := range e.outPairs() {
		if i > 0 {
			s += " "
		}
		s += in.DerivationString(pr.P, depth-1) + "→" + in.DerivationString(pr.O, depth-1)
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
