package archive

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/delta"
	"rdfalign/internal/rdf"
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
// an archive version by version with AppendVersion yields exactly the
// archive a one-shot Build over the whole history produces, for every
// chaining configuration.
func TestAppendVersionMatchesBuild(t *testing.T) {
	opts := []BuildOptions{
		{Align: hybridPair},
		{Align: overlapPair(1)},
		{Align: hybridPair, ResolveAmbiguous: true},
		{Align: overlapPair(4), ResolveAmbiguous: true},
	}
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		hist := randomHistory(r, 5)
		for oi, opt := range opts {
			want, err := Build(hist, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(hist[:1], opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range hist[1:] {
				if _, err := got.AppendVersion(g, nil, opt); err != nil {
					t.Fatalf("seed %d opt %d: AppendVersion: %v", seed, oi, err)
				}
			}
			requireSameArchive(t, "incremental vs one-shot", got, want)
			// The maintained archive reconstructs every version exactly.
			for v := 0; v < got.Versions(); v++ {
				if _, err := got.Snapshot(v); err != nil {
					t.Fatalf("seed %d opt %d: snapshot v%d: %v", seed, oi, v, err)
				}
			}
		}
	}
}

// TestAppendVersionScript: with g nil, AppendVersion derives the new version
// by applying the edit script to the newest archived graph, equivalently to
// appending the edited graph directly.
func TestAppendVersionScript(t *testing.T) {
	b := rdf.NewBuilder("v1")
	a1 := b.URI("http://e/a")
	p := b.URI("http://e/p")
	b.Triple(a1, p, b.Literal("x"))
	b.Triple(a1, p, b.URI("http://e/b"))
	g1 := b.MustGraph()

	uri := func(v string) rdf.Term { return rdf.Term{Kind: rdf.URI, Value: v} }
	lit := func(v string) rdf.Term { return rdf.Term{Kind: rdf.Literal, Value: v} }
	script := &delta.Script{Ops: []delta.Op{
		{T: rdf.TermTriple{S: uri("http://e/a"), P: uri("http://e/p"), O: lit("x")}},
		{Insert: true, T: rdf.TermTriple{S: uri("http://e/a"), P: uri("http://e/p"), O: lit("y")}},
		{Insert: true, T: rdf.TermTriple{S: uri("http://e/c"), P: uri("http://e/p"), O: uri("http://e/b")}},
	}}

	opt := BuildOptions{Align: hybridPair}
	byScript, err := Build([]*rdf.Graph{g1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := byScript.AppendVersion(nil, script, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build([]*rdf.Graph{g1, g2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameArchive(t, "script append vs build", byScript, want)
}

// TestAppendVersionErrors: raw-loaded archives cannot append, nor can an
// append without an Align function; a script that does not apply or a
// failing pair alignment leaves the archive unchanged; Clone isolates
// appends.
func TestAppendVersionErrors(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	hist := randomHistory(r, 3)
	opt := BuildOptions{Align: hybridPair}
	a, err := Build(hist[:2], opt)
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := FromRaw(a.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.AppendVersion(hist[2], nil, opt); err == nil {
		t.Fatal("raw-loaded archive accepted an append")
	}

	if _, err := a.AppendVersion(nil, nil, opt); err == nil {
		t.Fatal("append with neither graph nor script accepted")
	}
	if _, err := a.AppendVersion(hist[2], nil, BuildOptions{}); err == nil {
		t.Fatal("append without an Align function accepted")
	}

	// A clone can append without disturbing the original, and a failing
	// script leaves its archive byte-identical.
	clone := a.Clone()
	before := a.Raw()
	bad := &delta.Script{Ops: []delta.Op{{T: rdf.TermTriple{
		S: rdf.Term{Kind: rdf.URI, Value: "http://absent/node"},
		P: rdf.Term{Kind: rdf.URI, Value: "http://absent/p"},
		O: rdf.Term{Kind: rdf.Literal, Value: "absent"},
	}}}}
	if _, err := clone.AppendVersion(nil, bad, opt); err == nil {
		t.Fatal("delete of absent triple accepted")
	}
	failing := BuildOptions{Align: func(g1, g2 *rdf.Graph) (*core.Partition, *rdf.Combined, error) {
		return nil, nil, errors.New("align failed")
	}}
	if _, err := clone.AppendVersion(hist[2], nil, failing); err == nil {
		t.Fatal("failed pair alignment accepted")
	}
	if _, err := clone.AppendVersion(hist[2], nil, opt); err != nil {
		t.Fatalf("append after failed script: %v", err)
	}
	if !reflect.DeepEqual(a.Raw(), before) {
		t.Fatal("original archive changed by clone append or failed script")
	}
	want, err := Build(hist, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameArchive(t, "clone append", clone, want)
}
