package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rdfalign/internal/rdf"
)

// checkIndex asserts that the workspace's class index follows p over c and
// agrees with a full recount: the unaligned lists against the one-shot
// Unaligned, per-color side counts, and — once a walk has built them —
// the member lists.
func checkIndex(t *testing.T, label string, ws *Workspace, c *rdf.Combined, p *Partition) {
	t.Helper()
	ix := &ws.ix
	if !ix.tracks(p, c.N1) {
		t.Fatalf("%s: the index does not follow the partition", label)
	}
	un1, un2 := Unaligned(c, p)
	for _, literals := range []bool{false, true} {
		keep := func(ns []rdf.NodeID) []rdf.NodeID {
			return slices.DeleteFunc(slices.Clone(ns), func(n rdf.NodeID) bool { return c.IsLiteral(n) != literals })
		}
		got1, got2 := ws.Unaligned(c, p, literals)
		if !slices.Equal(got1, keep(un1)) || !slices.Equal(got2, keep(un2)) {
			t.Fatalf("%s: literals=%v unaligned (%v, %v), want (%v, %v)", label, literals, got1, got2, keep(un1), keep(un2))
		}
	}
	src, tgt := map[Color]int32{}, map[Color]int32{}
	for n, col := range p.colors {
		if n < c.N1 {
			src[col]++
		} else {
			tgt[col]++
		}
	}
	for col := range ix.cls {
		e := ix.cls[col]
		if e.src != src[Color(col)] || e.tgt != tgt[Color(col)] {
			t.Fatalf("%s: color %d counts (%d, %d), recount (%d, %d)", label, col, e.src, e.tgt, src[Color(col)], tgt[Color(col)])
		}
		if !ix.linked {
			continue
		}
		members := int32(0)
		for m := e.head; m != 0; m = ix.next[m-1] {
			if p.colors[m-1] != Color(col) {
				t.Fatalf("%s: node %d listed under color %d, has %d", label, m-1, col, p.colors[m-1])
			}
			members++
		}
		if members != e.src+e.tgt {
			t.Fatalf("%s: color %d lists %d members, counts %d", label, col, members, e.src+e.tgt)
		}
	}
}

// enrichLike mimics similarity.Enrich on the unaligned non-literals: it
// clusters a few random source/target pairs of xi under fresh colors with
// random weights, in place through Assign, and returns the nodes it
// assigned.
func enrichLike(r *rand.Rand, ws *Workspace, c *rdf.Combined, xi *Weighted) []rdf.NodeID {
	a, b := ws.Unaligned(c, xi.P, false)
	var changed []rdf.NodeID
	for i := 0; i < 3 && len(a) > 0 && len(b) > 0; i++ {
		n, m := a[r.Intn(len(a))], b[r.Intn(len(b))]
		col := xi.P.in.Fresh()
		for _, k := range []rdf.NodeID{n, m} {
			if !slices.Contains(changed, k) {
				changed = append(changed, k)
			}
			ws.Assign(xi, k, col, float64(r.Intn(5))/10)
		}
	}
	slices.Sort(changed)
	return changed
}

// TestWorkspaceIndexFollowsChains drives random Hybrid → Enrich →
// Propagate chains through one workspace, as the overlap loop does, and
// checks the class index against a full recount after every change list.
// It then rewinds to the deblank checkpoint extended to an edited target,
// re-runs the hybrid phase and checks that Carry covers every node whose
// color or weight differs from the previous final ξ.
func TestWorkspaceIndexFollowsChains(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		ws := NewWorkspace()
		eng := &Engine{Work: ws}
		if seed%3 == 0 {
			eng.MaxDepth = 1 + r.Intn(3)
		}
		base := LabelPartition(c.Graph, NewInterner())
		ws.Track(c, base)
		checkIndex(t, "label", ws, c, base)
		deblank, _, err := eng.DeblankFrom(c.Graph, base)
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, "deblank", ws, c, deblank)
		ws.Checkpoint(c, deblank)
		hybrid, _, err := eng.HybridFromDeblank(c, deblank)
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, "hybrid", ws, c, hybrid)
		xi := NewWeighted(hybrid.Clone())
		ws.Follow(hybrid, xi.P, nil)
		for round := 0; round < 4; round++ {
			enrichLike(r, ws, c, xi)
			checkIndex(t, "enrich", ws, c, xi.P)
			if _, _, err := eng.Propagate(c, xi, 0); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, "propagate", ws, c, xi.P)
		}

		// The next version: the target gains triples on URI subjects, some
		// labelled like source URIs, so classes gain target members and
		// the unaligned sets change. No blank is touched, so the deblank
		// partition extends with base colors, as a session's does.
		var ops []rdf.EditOp
		for i := 0; i < 1+r.Intn(4); i++ {
			ops = append(ops, rdf.EditOp{Insert: true, T: rdf.TermTriple{
				S: rdf.Term{Kind: rdf.URI, Value: fmt.Sprintf("u%d", r.Intn(8))},
				P: rdf.Term{Kind: rdf.URI, Value: "u0"},
				O: rdf.Term{Kind: rdf.Literal, Value: fmt.Sprintf("new%d", i)},
			}})
		}
		ed, err := rdf.NewEditor(c.TargetGraph()).Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		c2 := rdf.Union(c.SourceGraph(), ed.Graph)
		colors := slices.Clone(deblank.colors)
		for n := len(colors); n < c2.NumNodes(); n++ {
			colors = append(colors, deblank.in.Base(c2.Label(rdf.NodeID(n))))
		}
		deblank2 := NewPartition(deblank.in, colors)
		ws.Rewind(c2, xi.P, deblank2)
		checkIndex(t, "rewind", ws, c2, deblank2)
		ws.Checkpoint(c2, deblank2)
		hybrid2, _, err := eng.HybridFromDeblank(c2, deblank2)
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, "hybrid after rewind", ws, c2, hybrid2)
		want, _, err := (&Engine{MaxDepth: eng.MaxDepth}).HybridFromDeblank(c2, deblank2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(hybrid2.colors, want.colors) {
			t.Fatalf("seed %d: hybrid on the rewound workspace differs from a fresh one", seed)
		}
		xi0 := NewWeighted(hybrid2.Clone())
		ws.Follow(hybrid2, xi0.P, nil)
		cands, ok := ws.Carry(xi.P, xi0.P)
		if !ok {
			t.Fatalf("seed %d: no carry after an unbroken rewind", seed)
		}
		for n := range xi.P.colors {
			if (xi.P.colors[n] != xi0.P.colors[n] || xi.W[n] != xi0.W[n]) && !slices.Contains(cands, rdf.NodeID(n)) {
				t.Fatalf("seed %d: node %d differs from the previous ξ but is not carried", seed, n)
			}
		}
		if _, ok := ws.Carry(xi.P, xi0.P); ok {
			t.Fatalf("seed %d: carry not consumed", seed)
		}
	}
}

// TestCallWorkspaceMatchesKept runs deblank and hybrid refinement on the
// workspace an engine without one makes for a call: the results equal a
// kept workspace's, and the index it carried through the moves lists the
// unaligned sets of the final partition. A bisimulation refines a
// partition no workspace step produced, which the worklist indexes
// without the side split; a later query must rebuild rather than read
// that index. That workspace is reused across graphs of different sizes,
// so a listing must also forget the bits of a larger earlier graph.
func TestCallWorkspaceMatchesKept(t *testing.T) {
	kept := NewWorkspace() // reused across graphs of different sizes
	for seed := int64(0); seed < 30; seed++ {
		c := randomCombined(rand.New(rand.NewSource(seed)))
		run := func(ws *Workspace) (*Partition, *Partition) {
			eng := &Engine{Work: ws}
			base := LabelPartition(c.Graph, NewInterner())
			ws.Track(c, base)
			deblank, _, err := eng.DeblankFrom(c.Graph, base)
			if err != nil {
				t.Fatal(err)
			}
			hybrid, _, err := eng.HybridFromDeblank(c, deblank)
			if err != nil {
				t.Fatal(err)
			}
			return deblank, hybrid
		}
		call := (&Engine{}).workspace()
		deblank, hybrid := run(call)
		wantDeblank, wantHybrid := run(NewWorkspace())
		if !slices.Equal(deblank.colors, wantDeblank.colors) || !slices.Equal(hybrid.colors, wantHybrid.colors) {
			t.Fatalf("seed %d: a call's workspace refines differently", seed)
		}
		requireUnalignedLists(t, c, call, hybrid, seed)

		refined, _, err := (&Engine{Work: kept}).Bisim(c.Graph, NewInterner())
		if err != nil {
			t.Fatal(err)
		}
		requireUnalignedLists(t, c, kept, refined, seed)
	}
}

// requireUnalignedLists checks ws's unaligned lists for p, literal and
// non-literal, against filtering Unaligned(c, p).
func requireUnalignedLists(t *testing.T, c *rdf.Combined, ws *Workspace, p *Partition, seed int64) {
	t.Helper()
	want1, want2 := Unaligned(c, p)
	for _, literals := range []bool{false, true} {
		got1, got2 := ws.Unaligned(c, p, literals)
		other := func(n rdf.NodeID) bool { return c.IsLiteral(n) != literals }
		if !slices.Equal(got1, slices.DeleteFunc(slices.Clone(want1), other)) ||
			!slices.Equal(got2, slices.DeleteFunc(slices.Clone(want2), other)) {
			t.Fatalf("seed %d: unaligned lists (literals %v) differ from Unaligned", seed, literals)
		}
	}
}

// TestWorkspaceStampWrap checks that the stamped sets and witness maps
// forget their keys at the wrap, then runs refinements on a workspace
// whose generation stamps start just below math.MaxInt32, after a
// bisimulation run over every node left low stamps in all its slots:
// every stamp wraps mid-run, at a different round for each offset, and
// the colorings must equal those of a fresh workspace.
func TestWorkspaceStampWrap(t *testing.T) {
	var s stampSet
	s.reset(4)
	s.add(2)
	s.gen = math.MaxInt32
	s.reset(4)
	if s.has(2) {
		t.Fatal("a key added before the wrap is still a member after it")
	}
	var m colorMap
	m.reset()
	m.slot(7)
	m.gen = math.MaxInt32
	m.reset()
	if m.find(7) != nil {
		t.Fatal("a color added before the wrap is still mapped after it")
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := rdf.Union(randomGraph(r, "g1", 6, 25, 3, 90), randomGraph(r, "g2", 6, 25, 3, 90))
		run := func(offset int32) []Color {
			ws := NewWorkspace()
			eng := &Engine{Work: ws}
			if offset > 0 {
				if _, _, err := eng.Bisim(c.Graph, NewInterner()); err != nil {
					t.Fatal(err)
				}
				ws.setStampsForTest(math.MaxInt32 - offset)
			}
			hybrid, _, err := eng.Hybrid(c, NewInterner())
			if err != nil {
				t.Fatal(err)
			}
			xi := NewWeighted(hybrid)
			if _, _, err := eng.Propagate(c, xi, 0); err != nil {
				t.Fatal(err)
			}
			return xi.P.colors
		}
		want := run(0)
		for offset := int32(1); offset <= 8; offset++ {
			if got := run(offset); !slices.Equal(got, want) {
				t.Fatalf("seed %d offset %d: colors after stamp wrap differ:\n%v\nwant\n%v", seed, offset, got, want)
			}
		}
	}
}

// TestRenameCheck drives the grouping-equivalence check with hand-made
// change lists over a four-node partition — classes A = {0, 1}, B = {2}
// and C = {3} plus two unused colors — one witness pair reused across
// the cases, as rounds reuse it.
func TestRenameCheck(t *testing.T) {
	in := NewInterner()
	A, B, C, F1, F2 := in.Fresh(), in.Fresh(), in.Fresh(), in.Fresh(), in.Fresh()
	var ix classIndex
	ix.rebuild(NewPartition(in, []Color{A, A, B, C}), 4)
	var rc renameCheck
	for _, tc := range []struct {
		name string
		ch   []change
		want bool
	}{
		{"empty round", nil, true},
		{"class renamed", []change{{0, A, F1}, {1, A, F1}}, true},
		{"two classes renamed", []change{{0, A, F1}, {1, A, F1}, {2, B, F2}}, true},
		{"classes swapped", []change{{2, B, C}, {3, C, B}}, true},
		{"class split", []change{{0, A, F1}, {1, A, F2}}, false},
		{"member left behind", []change{{0, A, F1}}, false},
		{"classes merged", []change{{2, B, F1}, {3, C, F1}}, false},
		{"joins an occupied class", []change{{2, B, C}}, false},
	} {
		if got := rc.equivalent(tc.ch, &ix); got != tc.want {
			t.Errorf("%s: equivalent = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestColorMapGrows inserts far more keys than the initial table holds, in
// two generations: every key of the current generation keeps its witness
// through the doublings, and no key of the previous one survives.
func TestColorMapGrows(t *testing.T) {
	var m colorMap
	for round, n := range []int{1000, 300} {
		m.reset()
		for k := 0; k < n; k++ {
			s, seen := m.slot(Color(k*7 + round))
			if seen {
				t.Fatalf("round %d: key %d present before its insert", round, k)
			}
			s.val, s.count = Color(k), int32(k+1)
		}
		for k := 0; k < n; k++ {
			s := m.find(Color(k*7 + round))
			if s == nil || s.val != Color(k) || s.count != int32(k+1) {
				t.Fatalf("round %d: key %d lost its witness", round, k)
			}
		}
		if 2*m.used > len(m.slots) {
			t.Fatalf("round %d: %d keys in %d slots", round, m.used, len(m.slots))
		}
	}
	if m.find(0) != nil {
		t.Fatal("a key of the previous generation survived the reset")
	}
}
