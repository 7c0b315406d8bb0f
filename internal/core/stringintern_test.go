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
// The key is the varint-encoded prev followed by each pair's colors;
// extended signatures' negative colors encode as their 64-bit
// two's-complement varints, so they stay distinct. The key buffer is
// reused across calls (the map insert copies it via the string
// conversion).
type stringInterner struct {
	labels map[rdf.Label]Color
	comps  map[string]Color
	next   Color
	sets   map[Color][]ColorPair
	keyBuf []byte
}

func newStringInterner() *stringInterner {
	return &stringInterner{
		labels: make(map[rdf.Label]Color),
		comps:  make(map[string]Color),
		sets:   make(map[Color][]ColorPair),
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
	if set, ok := in.sets[prev]; ok && pairsEqual(set, pairs) {
		return prev
	}
	buf := binary.AppendUvarint(in.keyBuf[:0], uint64(prev))
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
	in.sets[c] = append([]ColorPair(nil), pairs...)
	return c
}
