package core

import (
	"encoding/binary"

	"rdfalign/internal/rdf"
)

// stringInterner is the historical composite-interning path: every
// signature is serialised into a canonical byte-string key and resolved
// through a Go map. It is retained as the test-only reference
// implementation for the hash interner — the differential tests in
// intern_test.go replay identical construction sequences through both and
// require identical colors, and BenchmarkInternComposite measures the
// hash interner's win over it.
//
// The key encoding is the original one: a leading tag byte keeps plain
// ('P') and multi-list ('L') signatures disjoint, every varint-encoded
// list is length-prefixed so encodings cannot shift into each other, and
// the key buffer is reused across calls (the map insert copies it via the
// string conversion).
type stringInterner struct {
	labels map[rdf.Label]Color
	comps  map[string]Color
	next   Color
	lists  map[Color][][]ColorPair
	keyBuf []byte
}

func newStringInterner() *stringInterner {
	return &stringInterner{
		labels: make(map[rdf.Label]Color),
		comps:  make(map[string]Color),
		lists:  make(map[Color][][]ColorPair),
	}
}

// Fresh allocates a color equal only to itself.
func (in *stringInterner) Fresh() Color {
	c := in.next
	in.next++
	return c
}

// Base is the historical Interner.Base: one map keyed by the whole label.
// Every blank label maps to color 0, the blank color NewInterner allocates
// first; callers mirror it with their first Fresh call.
func (in *stringInterner) Base(l rdf.Label) Color {
	if l.Kind == rdf.Blank {
		return 0
	}
	if c, ok := in.labels[l]; ok {
		return c
	}
	c := in.Fresh()
	in.labels[l] = c
	return c
}

// Composite is Interner.Composite on the string-keyed path.
func (in *stringInterner) Composite(prev Color, pairs []ColorPair) Color {
	sortPairs(pairs)
	pairs = dedupPairs(pairs)
	if l, ok := in.lists[prev]; ok && len(l) == 1 && pairsEqual(l[0], pairs) {
		return prev
	}
	buf := append(in.keyBuf[:0], 'P')
	buf = binary.AppendUvarint(buf, uint64(prev))
	for _, pr := range pairs {
		buf = binary.AppendUvarint(buf, uint64(pr.P))
		buf = binary.AppendUvarint(buf, uint64(pr.O))
	}
	in.keyBuf = buf
	if c, ok := in.comps[string(buf)]; ok {
		return c
	}
	c := in.Fresh()
	in.comps[string(buf)] = c
	in.lists[c] = [][]ColorPair{append([]ColorPair(nil), pairs...)}
	return c
}

// listsEqual reports whether a and b hold equal pair lists in order.
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

// CompositeLists is Interner.CompositeLists on the string-keyed path.
func (in *stringInterner) CompositeLists(prev Color, lists ...[]ColorPair) Color {
	for i := range lists {
		sortPairs(lists[i])
		lists[i] = dedupPairs(lists[i])
	}
	if l, ok := in.lists[prev]; ok && listsEqual(l, lists) {
		return prev
	}
	buf := append(in.keyBuf[:0], 'L')
	buf = binary.AppendUvarint(buf, uint64(prev))
	buf = binary.AppendUvarint(buf, uint64(len(lists)))
	for _, pairs := range lists {
		buf = binary.AppendUvarint(buf, uint64(len(pairs)))
		for _, pr := range pairs {
			buf = binary.AppendUvarint(buf, uint64(pr.P))
			buf = binary.AppendUvarint(buf, uint64(pr.O))
		}
	}
	in.keyBuf = buf
	if c, ok := in.comps[string(buf)]; ok {
		return c
	}
	c := in.Fresh()
	in.comps[string(buf)] = c
	stored := make([][]ColorPair, len(lists))
	for i, pairs := range lists {
		stored[i] = append([]ColorPair(nil), pairs...)
	}
	in.lists[c] = stored
	return c
}
