package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"rdfalign/internal/rdf"
)

// refClasses is the map-based reference for the class table: every class's
// source and target members, each ascending, keyed by color.
type refClasses map[Color]*[2][]rdf.NodeID

func newRefClasses(c *rdf.Combined, p *Partition) refClasses {
	ref := refClasses{}
	for i, col := range p.Colors() {
		sides := ref[col]
		if sides == nil {
			sides = &[2][]rdf.NodeID{}
			ref[col] = sides
		}
		side := 0
		if i >= c.N1 {
			side = 1
		}
		sides[side] = append(sides[side], rdf.NodeID(i))
	}
	return ref
}

// randomClassPartition colors a random combined graph with a few colors
// drawn from an interner grown far past the node count with Fresh, so
// most colors are much larger than N, as in a long-lived session. Some
// draws keep the label partition's small colors.
func randomClassPartition(r *rand.Rand) (*rdf.Combined, *Partition) {
	c := randomCombined(r)
	in := NewInterner()
	labels := LabelPartition(c.Graph, in)
	for range r.Intn(5000) {
		in.Fresh()
	}
	pool := make([]Color, 1+r.Intn(c.NumNodes()))
	for i := range pool {
		if r.Intn(4) == 0 {
			pool[i] = labels.Color(rdf.NodeID(r.Intn(c.NumNodes())))
		} else {
			pool[i] = in.Fresh()
		}
	}
	colors := make([]Color, c.NumNodes())
	for i := range colors {
		colors[i] = pool[r.Intn(len(pool))]
	}
	return c, NewPartition(in, colors)
}

func TestClassTableMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for iter := range 300 {
		c, p := randomClassPartition(r)
		ref := newRefClasses(c, p)
		a := NewAlignment(c, p)
		if iter%2 == 1 {
			xi := NewWeighted(p)
			for i := range xi.W {
				xi.W[i] = r.Float64() / 2
			}
			a = NewWeightedAlignment(c, xi, r.Float64())
		}

		var want1, want2 []rdf.NodeID
		wantPairs := [][2]rdf.NodeID{}
		wantAll, wantURI := 0, 0
		var wantChains [][2]rdf.NodeID
		for i, col := range p.Colors() {
			sides := ref[col]
			n := rdf.NodeID(i)
			if i < c.N1 {
				if len(sides[1]) == 0 {
					want1 = append(want1, n)
				}
				for _, m := range sides[1] {
					if a.W == nil || OPlus(a.W[n], a.W[m]) <= a.Theta {
						wantPairs = append(wantPairs, [2]rdf.NodeID{n, c.ToTarget(m)})
					}
				}
			} else if len(sides[0]) == 0 {
				want2 = append(want2, c.ToTarget(n))
			}
		}
		cols := make([]Color, 0, len(ref))
		for col, sides := range ref {
			cols = append(cols, col)
			if len(sides[0]) == 0 || len(sides[1]) == 0 {
				continue
			}
			wantAll++
			if slices.ContainsFunc(slices.Concat(sides[0], sides[1]), c.IsURI) {
				wantURI++
			}
		}
		slices.Sort(cols)
		for _, col := range cols {
			if sides := ref[col]; len(sides[0]) == 1 && len(sides[1]) == 1 {
				wantChains = append(wantChains, [2]rdf.NodeID{sides[0][0], sides[1][0]})
			}
		}

		got1, got2 := a.Unaligned()
		if !slices.Equal(got1, want1) || !slices.Equal(got2, want2) {
			t.Fatalf("iter %d: Unaligned = %v, %v; want %v, %v", iter, got1, got2, want1, want2)
		}
		gotPairs := [][2]rdf.NodeID{}
		a.Pairs(func(n1, n2 rdf.NodeID) { gotPairs = append(gotPairs, [2]rdf.NodeID{n1, n2}) })
		if !reflect.DeepEqual(gotPairs, wantPairs) {
			t.Fatalf("iter %d: Pairs = %v, want %v", iter, gotPairs, wantPairs)
		}
		for n1 := range c.N1 {
			var want []rdf.NodeID
			for _, pr := range wantPairs {
				if pr[0] == rdf.NodeID(n1) {
					want = append(want, pr[1])
				}
			}
			if got := a.MatchesOf(rdf.NodeID(n1)); !slices.Equal(got, want) {
				t.Fatalf("iter %d: MatchesOf(%d) = %v, want %v", iter, n1, got, want)
			}
		}
		if got := a.AlignedEntityCount(false); got != wantAll {
			t.Fatalf("iter %d: AlignedEntityCount(false) = %d, want %d", iter, got, wantAll)
		}
		if got := a.AlignedEntityCount(true); got != wantURI {
			t.Fatalf("iter %d: AlignedEntityCount(true) = %d, want %d", iter, got, wantURI)
		}
		var gotChains [][2]rdf.NodeID
		classes := 0
		a.EachClass(func(src, tgt []rdf.NodeID) {
			sides := ref[p.Color(slices.Concat(src, tgt)[0])]
			if !slices.Equal(src, sides[0]) || !slices.Equal(tgt, sides[1]) {
				t.Fatalf("iter %d: EachClass class %v, %v differs from the reference", iter, src, tgt)
			}
			classes++
			if len(src) == 1 && len(tgt) == 1 {
				gotChains = append(gotChains, [2]rdf.NodeID{src[0], tgt[0]})
			}
		})
		if classes != len(ref) || !reflect.DeepEqual(gotChains, wantChains) {
			t.Fatalf("iter %d: EachClass visited %d classes with chains %v; want %d with %v",
				iter, classes, gotChains, len(ref), wantChains)
		}
	}
}

// TestClassTableConcurrentFirstQuery makes the first MatchesOf call on a
// fresh alignment from several goroutines at once; run under -race it
// checks that the lazily built table is published safely.
func TestClassTableConcurrentFirstQuery(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for range 20 {
		c, p := randomClassPartition(r)
		want := make([][]rdf.NodeID, c.N1)
		ref := NewAlignment(c, p)
		for n1 := range c.N1 {
			want[n1] = ref.MatchesOf(rdf.NodeID(n1))
		}
		a := NewAlignment(c, p)
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range c.N1 {
					n1 := (i + g) % c.N1
					if got := a.MatchesOf(rdf.NodeID(n1)); !slices.Equal(got, want[n1]) {
						t.Errorf("MatchesOf(%d) = %v, want %v", n1, got, want[n1])
					}
				}
			}()
		}
		wg.Wait()
	}
}
