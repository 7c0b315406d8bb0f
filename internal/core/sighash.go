package core

// This file implements the hash side of composite-signature interning: a
// 64-bit signature hash computed directly from the canonical (prev, pairs)
// form — no byte-key serialisation, no allocation — and the open-addressed
// table that resolves a hash to a Color. There is one signature domain:
// every composite, plain or extended (extend.go tags its in-edge and
// predicate-occurrence pairs into the one set), is a prev color and a pair
// set. The table stores only (hash, color) pairs; on a hash hit the
// candidate color's entry in Interner.entries is compared structurally
// against the pair set it references (pairsEqual), so the entry table
// stays the single source of truth for what a color means and hash
// collisions cost a comparison, never a wrong answer. Entries and pair
// sets hold no pointers, so the garbage collector never scans them and a
// storage-backed interner keeps them out of the Go heap.
// Hash-based signature interning is the partitioning strategy the fastest
// k-bisimulation implementations use (Rau, Richerby & Scherp 2022); here it
// replaces the string-keyed map of the seed implementation (kept in the
// tests as stringInterner, the differential reference).
//
// The hash seed perturbs bucket placement only: colors are assigned in
// interning order, so colorings are bit-identical across seeds. Tests vary
// the seed to prove that.

// sigSeedDefault is the default interner hash seed (an arbitrary odd
// constant; NewInternerSeeded accepts any value).
const sigSeedDefault uint64 = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a cheap full-avalanche permutation of
// uint64, used as the compression function of the signature hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pairWord packs one ColorPair into the word fed to the mixer.
func pairWord(pr ColorPair) uint64 {
	return uint64(uint32(pr.P))<<32 | uint64(uint32(pr.O))
}

// sigHashPairs hashes the canonical (prev, pairs) signature of a
// composite. pairs must already be sorted and deduplicated; the chain of
// mixes is positional, and the trailing length mix keeps prefixes distinct.
func sigHashPairs(seed uint64, prev Color, pairs []ColorPair) uint64 {
	h := mix64(seed ^ uint64(uint32(prev))*0x9e3779b97f4a7c15)
	for _, pr := range pairs {
		h = mix64(h ^ pairWord(pr))
	}
	return mix64(h ^ uint64(len(pairs)))
}

// sigSlot is one open-addressing slot: the full 64-bit signature hash and
// the interned color, stored +1 so the zero slot reads as empty.
type sigSlot struct {
	hash uint64
	ref  uint32
}

// sigTable maps signature hashes to colors with linear probing. It never
// deletes; growth rehashes at ~70% load using the stored hashes. The zero
// value is an empty table.
type sigTable struct {
	slots []sigSlot
	mask  uint64
	count int
}

const sigTableMinSize = 64

// grow doubles (or initialises) the slot array and reinserts every entry.
func (t *sigTable) grow() {
	n := sigTableMinSize
	if len(t.slots) > 0 {
		n = len(t.slots) * 2
	}
	old := t.slots
	t.slots = make([]sigSlot, n)
	t.mask = uint64(n - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := s.hash & t.mask
		for t.slots[i].ref != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// insert adds (h, c) to the table. The caller must have established that no
// structurally equal signature is already present (lookup returned a miss).
func (t *sigTable) insert(h uint64, c Color) {
	if t.slots == nil || t.count >= len(t.slots)*7/10 {
		t.grow()
	}
	i := h & t.mask
	for t.slots[i].ref != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = sigSlot{hash: h, ref: uint32(c) + 1}
	t.count++
}

// lookupPairs resolves the composite signature (prev, pairs) under hash
// h, comparing hash-equal candidates structurally against the interner's
// entries and the pair sets they reference.
func (in *Interner) lookupPairs(h uint64, prev Color, pairs []ColorPair) (Color, bool) {
	t := &in.table
	if t.slots == nil {
		return NoColor, false
	}
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s.ref == 0 {
			return NoColor, false
		}
		if s.hash != h {
			continue
		}
		c := Color(s.ref - 1)
		e := in.slot(c)
		if e.prev == prev && pairsEqual(in.pairs.view(e.ref), pairs) {
			return c, true
		}
	}
}
