package core

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"rdfalign/internal/rdf"
)

// hasPointers reports whether values of t hold anything the garbage
// collector must trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// TestInternerTablesHoldNoPointers guards the interner's layout: the entry
// chunks and the pair store may live outside the Go heap only while their
// element types hold no pointers, and an entry costs at most 20 bytes per
// color.
func TestInternerTablesHoldNoPointers(t *testing.T) {
	for _, v := range []any{compositeEntry{}, entryChunk{}, storeRef{}, ColorPair{}} {
		if typ := reflect.TypeOf(v); hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}
	if n := unsafe.Sizeof(compositeEntry{}); n > 20 {
		t.Errorf("compositeEntry is %d bytes, want at most 20", n)
	}
	// The guard itself must notice a pointer.
	if !hasPointers(reflect.TypeOf(struct {
		c Color
		l [][]ColorPair
	}{})) {
		t.Error("hasPointers misses a slice field")
	}
}

// countingStorage counts the int32 words drawn through AllocColors.
type countingStorage struct {
	Storage
	words int
}

func (s *countingStorage) AllocColors(n int) []Color {
	s.words += n
	return s.Storage.AllocColors(n)
}

// internedColor records what a composite color was interned from: its
// prev and its canonical pair set.
type internedColor struct {
	c, prev Color
	pairs   []ColorPair
}

// checkInterned checks every recorded color against its interner:
// IsComposite returns its prev and pair set, DerivationString renders the
// recorded structure, re-interning hits the color, and composing the color
// with its own pair set collapses to it (the stable-tree rule).
func checkInterned(t *testing.T, in *Interner, recs []internedColor) {
	t.Helper()
	byColor := make(map[Color]internedColor, len(recs))
	for _, r := range recs {
		byColor[r.c] = r
	}
	var want func(c Color, depth int) string
	want = func(c Color, depth int) string {
		if depth <= 0 {
			return "…"
		}
		r, ok := byColor[c]
		if !ok {
			return fmt.Sprintf("c%d", c)
		}
		var terms []string
		for _, pr := range r.pairs {
			switch {
			case pr == extMarker:
			case pr.O < 0:
				terms = append(terms, want(^pr.O, depth-1)+"→"+want(pr.P, depth-1)+"→•")
			case pr.P < 0:
				terms = append(terms, want(^pr.P, depth-1)+"→•→"+want(pr.O, depth-1))
			default:
				terms = append(terms, want(pr.P, depth-1)+"→"+want(pr.O, depth-1))
			}
		}
		return "(" + want(r.prev, depth-1) + " {" + strings.Join(terms, " ") + "})"
	}
	size := in.Size()
	for _, r := range recs {
		prev, pairs, ok := in.IsComposite(r.c)
		if !ok || prev != r.prev || !pairsEqual(pairs, r.pairs) {
			t.Fatalf("color %d: IsComposite = (%d, %v, %v), want (%d, %v)", r.c, prev, pairs, ok, r.prev, r.pairs)
		}
		if got, w := in.DerivationString(r.c, 3), want(r.c, 3); got != w {
			t.Fatalf("color %d: DerivationString = %q, want %q", r.c, got, w)
		}
		again := in.Composite(r.prev, append([]ColorPair(nil), r.pairs...))
		stable := in.Composite(r.c, append([]ColorPair(nil), r.pairs...))
		if again != r.c || stable != r.c {
			t.Fatalf("color %d: re-interned as %d, composed with its own pairs as %d", r.c, again, stable)
		}
	}
	if in.Size() != size {
		t.Fatalf("checks allocated %d colors", in.Size()-size)
	}
}

// TestInternerChunkBoundaries interns across entry-chunk and pair-chunk
// boundaries — plain and extended signatures through Composite, and the
// external-merge round — and checks every color on both sides of each
// boundary.
func TestInternerChunkBoundaries(t *testing.T) {
	t.Run("composite", func(t *testing.T) {
		st := &countingStorage{Storage: OutOfCore(t.TempDir())}
		defer st.Close()
		in := NewInternerIn(st)
		base := make([]Color, 256)
		for i := range base {
			base[i] = in.Fresh()
		}
		var recs []internedColor
		// Intern until the colors span 4 entry and 3 pair chunks.
		for i := 0; len(in.entries) < 4 || len(in.pairs.chunks) < 3; i++ {
			pairs := []ColorPair{{base[i%256], base[i/256%256]}, {base[0], base[i%7+1]}}
			if i%2 == 0 {
				// An in-edge, a predicate occurrence and the marker, as
				// extended refinement interns them.
				pairs = append(pairs, ColorPair{base[i%11], ^base[2]}, ColorPair{^base[3], base[i%13]}, extMarker)
			}
			sortPairs(pairs)
			pairs = dedupPairs(pairs)
			prev := base[i%5]
			c := in.Composite(prev, append([]ColorPair(nil), pairs...))
			recs = append(recs, internedColor{c: c, prev: prev, pairs: pairs})
		}
		entryWords := len(in.entries) * int(unsafe.Sizeof(entryChunk{})) / 4
		if st.words < entryWords {
			t.Fatalf("storage served %d words, the entry chunks alone need %d", st.words, entryWords)
		}
		checkInterned(t, in, recs)
	})

	t.Run("external-merge", func(t *testing.T) {
		defer func(th int) { extMergeThreshold = th }(extMergeThreshold)
		extMergeThreshold = 1
		b := rdf.NewBuilder("chunk-boundaries")
		p, q := b.URI("p"), b.URI("q")
		var lits []rdf.NodeID
		for i := 0; i < 60; i++ {
			lits = append(lits, b.Literal("l"+strconv.Itoa(i)))
		}
		for i := 0; i < 3000; i++ {
			n := b.FreshBlank()
			b.Triple(n, p, lits[i%60])
			b.Triple(n, q, lits[i/60])
		}
		g := b.MustGraph()
		want, _, err := (&Engine{}).Deblank(g, NewInterner())
		if err != nil {
			t.Fatal(err)
		}
		in, st := newTestDiskInterner(t, sigSeedDefault)
		defer st.Close()
		got, _, err := (&Engine{}).Deblank(g, in)
		if err != nil {
			t.Fatal(err)
		}
		if !samePartition(want, got) || in.Size() != want.in.Size() {
			t.Fatal("external-merge deblank diverged from the in-memory engine")
		}
		if len(in.entries) < 3 || len(in.pairs.chunks) < 2 {
			t.Fatalf("crossed too few boundaries: %d entry, %d pair chunks", len(in.entries), len(in.pairs.chunks))
		}
		var recs []internedColor
		for c := Color(0); int(c) < in.Size(); c++ {
			prev, pairs, ok := want.in.IsComposite(c)
			if !ok {
				continue
			}
			recs = append(recs, internedColor{c: c, prev: prev, pairs: append([]ColorPair(nil), pairs...)})
		}
		checkInterned(t, in, recs)
	})
}
