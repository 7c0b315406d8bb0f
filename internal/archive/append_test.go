package archive

import (
	"math/rand"
	"reflect"
	"testing"

	"rdfalign/internal/core"
)

// requireSameArchive compares two archives by their full raw columns and
// derived statistics.
func requireSameArchive(t *testing.T, label string, got, want *Archive) {
	t.Helper()
	if !reflect.DeepEqual(got.Raw(), want.Raw()) {
		t.Fatalf("%s: raw columns differ: got %d entities/%d rows, want %d/%d",
			label, got.NumEntities(), got.NumRows(), want.NumEntities(), want.NumRows())
	}
	if got.GatherStats() != want.GatherStats() {
		t.Fatalf("%s: stats differ:\n got %v\nwant %v", label, got.GatherStats(), want.GatherStats())
	}
}

// TestAppendVersionMatchesBuild is the archive maintenance property: growing
// an archive the way a service does — every version appended to a clone of
// the previous state — yields exactly the archive appended in place, for
// every chaining configuration, and reconstructs every version.
func TestAppendVersionMatchesBuild(t *testing.T) {
	opts := []buildOpts{
		{Align: hybridPair},
		{Align: overlapPair(1)},
		{Align: hybridPair, ResolveAmbiguous: true},
		{Align: overlapPair(4), ResolveAmbiguous: true},
	}
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		hist := randomHistory(r, 5)
		for oi, opt := range opts {
			want, err := build(hist, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := New(hist[0])
			for _, g := range hist[1:] {
				next := got.Clone()
				if err := appendGraph(next, g, opt); err != nil {
					t.Fatalf("seed %d opt %d: Append: %v", seed, oi, err)
				}
				got = next
			}
			requireSameArchive(t, "cloned vs in place", got, want)
			for v := 0; v < got.Versions(); v++ {
				if _, err := got.Snapshot(v); err != nil {
					t.Fatalf("seed %d opt %d: snapshot v%d: %v", seed, oi, v, err)
				}
			}
		}
	}
}

// TestAppendVersionErrors: Append rejects, before any mutation, a
// raw-loaded archive, a pair whose source is not the newest archived graph
// (even an equal copy of it) and a partition of another pair; Clone
// isolates appends.
func TestAppendVersionErrors(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	hist := randomHistory(r, 3)
	opt := buildOpts{Align: hybridPair}
	a, err := build(hist[:2], opt)
	if err != nil {
		t.Fatal(err)
	}
	before := a.Raw()
	p, c, err := hybridPair(hist[1], hist[2])
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := FromRaw(a.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Append(c, p, false); err == nil {
		t.Fatal("raw-loaded archive accepted an append")
	}
	if err := loaded.RebuildTail(); err != nil {
		t.Fatal(err)
	}
	// The rebuilt tail's graph is a reconstruction, not hist[1].
	if err := loaded.Append(c, p, false); err == nil {
		t.Fatal("rebuilt archive accepted a pair over another copy of its newest graph")
	}

	_, c0, err := hybridPair(hist[0], hist[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(c0, p, false); err == nil {
		t.Fatal("pair over an older version accepted")
	}
	small := core.TrivialPartition(uriGraph([3]string{"a", "p", "b"}), core.NewInterner())
	if err := a.Append(c, small, false); err == nil {
		t.Fatal("partition of another graph accepted")
	}
	if !reflect.DeepEqual(a.Raw(), before) {
		t.Fatal("rejected append changed the archive")
	}

	// A clone can append without disturbing the original.
	clone := a.Clone()
	if err := clone.Append(c, p, false); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Raw(), before) {
		t.Fatal("original archive changed by clone append")
	}
	want, err := build(hist, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameArchive(t, "clone append", clone, want)
}
