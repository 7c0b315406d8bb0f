package archive

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"rdfalign/internal/dataset"
	"rdfalign/internal/rdf"
)

// sortedVersionKeys is the reference for versionKeys: it maps every triple
// of g to its entity key, sorts all keys and drops duplicates — the global
// sort that versionKeys avoids.
func sortedVersionKeys(g *rdf.Graph, entity []EntityID) [][3]EntityID {
	keys := make([][3]EntityID, 0, g.NumTriples())
	g.EachTriple(func(t rdf.Triple) bool {
		keys = append(keys, [3]EntityID{entity[t.S], entity[t.P], entity[t.O]})
		return true
	})
	slices.SortFunc(keys, compareKey)
	return slices.Compact(keys)
}

// requireTailKeys checks versionKeys of the archive's newest version, under
// the assignment recordVersion used for it, against the sorted reference.
func requireTailKeys(t *testing.T, label string, a *Archive) {
	t.Helper()
	got := a.versionKeys(a.tail.lastGraph, a.tail.cur)
	if want := sortedVersionKeys(a.tail.lastGraph, a.tail.cur); !slices.Equal(got, want) {
		t.Fatalf("%s: entity-ordered keys differ from the sorted reference\ngot  %v\nwant %v", label, got, want)
	}
}

// hubGraph has one subject whose out-degree (40 edges over 5 predicates)
// is far above any small-sort cutoff, plus its reverse edges; shift
// renames half the objects so consecutive versions chain only in part.
func hubGraph(shift int) *rdf.Graph {
	b := rdf.NewBuilder(fmt.Sprintf("hub%d", shift))
	hub := b.URI("hub")
	for i := 0; i < 40; i++ {
		o := b.URI(fmt.Sprintf("o%d", i+shift*(i%2)))
		p := b.URI(fmt.Sprintf("p%d", (i*7)%5))
		b.Triple(hub, p, o)
		b.Triple(o, b.URI("back"), hub)
		b.Triple(o, p, b.Literal(fmt.Sprint(i%3)))
	}
	return b.MustGraph()
}

// mapped returns the column-backed copy of g.
func mapped(t *testing.T, g *rdf.Graph) *rdf.Graph {
	t.Helper()
	m, err := rdf.FromColumns(g.Columns())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// keyHistories are the version histories the key-order and URI-note tests
// replay: random histories with renames and deletions, a rename with a
// triple that leaves and returns and a URI that resumes after a gap, a hub
// subject, the GtoPdb export that needs ResolveAmbiguous, and blank-heavy
// EFO releases.
func keyHistories(t *testing.T) map[string][]*rdf.Graph {
	t.Helper()
	h := make(map[string][]*rdf.Graph)
	for seed := int64(0); seed < 12; seed++ {
		h[fmt.Sprintf("random-%d", seed)] = randomHistory(rand.New(rand.NewSource(seed)), 5)
	}
	apb, apc, cqa := [3]string{"a", "p", "b"}, [3]string{"a", "p", "c"}, [3]string{"c", "q", "a"}
	h["rename-leave-return-gap"] = []*rdf.Graph{
		uriGraph(apb, apc, cqa),
		uriGraph([3]string{"a2", "p", "c"}, [3]string{"c", "q", "a2"}), // a renamed to a2; apb leaves, b with it
		uriGraph(apc, cqa), // a2 renamed back to a
		uriGraph(apb, apc, cqa, [3]string{"b", "p", "c"}), // apb returns, b resumes after its gap
	}
	h["hub"] = []*rdf.Graph{hubGraph(0), hubGraph(1), hubGraph(2), hubGraph(0)}
	gtop, err := dataset.GenerateGtoPdb(dataset.GtoPdbConfig{Versions: 3, Scale: 0.002, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h["gtopdb"] = gtop.Graphs
	efo, err := dataset.GenerateEFO(dataset.EFOConfig{Versions: 4, Scale: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	h["efo"] = efo.Graphs
	return h
}

// TestVersionKeysMatchSortedReference: on every history, with and without
// ResolveAmbiguous and with heap and column-backed new versions, the keys
// recordVersion merges after New and after each Append equal the
// globally sorted keys exactly. Random injective assignments over a wider
// entity space check versionKeys on every version graph beyond the
// assignments chaining produces.
func TestVersionKeysMatchSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for name, hist := range keyHistories(t) {
		for _, opt := range []buildOpts{{Align: hybridPair}, {Align: hybridPair, ResolveAmbiguous: true}} {
			for _, col := range []bool{false, true} {
				label := fmt.Sprintf("%s resolve=%v mapped=%v", name, opt.ResolveAmbiguous, col)
				a, err := build(hist[:1], opt)
				if err != nil {
					t.Fatal(err)
				}
				requireTailKeys(t, label+" build", a)
				for v, g := range hist[1:] {
					if col {
						g = mapped(t, g)
					}
					if err := appendGraph(a, g, opt); err != nil {
						t.Fatal(err)
					}
					requireTailKeys(t, fmt.Sprintf("%s append v%d", label, v+1), a)
				}
			}
		}
		for v, g := range hist {
			a := &Archive{labels: make([][]labelRun, 3*g.NumNodes())}
			entity := make([]EntityID, g.NumNodes())
			for i, e := range r.Perm(len(a.labels))[:len(entity)] {
				entity[i] = EntityID(e)
			}
			got, want := a.versionKeys(g, entity), sortedVersionKeys(g, entity)
			if !slices.Equal(got, want) {
				t.Fatalf("%s v%d: keys under a random assignment differ from the sorted reference", name, v)
			}
		}
	}
}

// rebuiltLastSeen is the URI resume map RebuildTail reconstructs from the
// archive's raw columns.
func rebuiltLastSeen(t *testing.T, a *Archive) map[string]EntityID {
	t.Helper()
	b, err := FromRaw(a.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RebuildTail(); err != nil {
		t.Fatal(err)
	}
	return b.tail.lastSeen
}

// TestLastSeenMatchesRebuild: recordVersion notes a URI only when its
// entity opens a label run, yet after build, after every Append and
// after divergent appends to a clone and its original, the tail's resume
// map equals the one RebuildTail derives from the label runs.
func TestLastSeenMatchesRebuild(t *testing.T) {
	check := func(label string, a *Archive) {
		t.Helper()
		if want := rebuiltLastSeen(t, a); !maps.Equal(a.tail.lastSeen, want) {
			t.Fatalf("%s: lastSeen has %d URIs, RebuildTail %d, or they map differently", label, len(a.tail.lastSeen), len(want))
		}
	}
	for name, hist := range keyHistories(t) {
		for _, opt := range []buildOpts{{Align: hybridPair}, {Align: hybridPair, ResolveAmbiguous: true}} {
			label := fmt.Sprintf("%s resolve=%v", name, opt.ResolveAmbiguous)
			a, err := build(hist[:2], opt)
			if err != nil {
				t.Fatal(err)
			}
			check(label+" build", a)
			b := a.Clone()
			check(label+" clone", b)
			for v := 2; v < len(hist); v++ {
				if err := appendGraph(a, hist[v], opt); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s append v%d", label, v), a)
				// The clone replays the history backwards.
				if err := appendGraph(b, hist[len(hist)+1-v], opt); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s clone append v%d", label, v), b)
			}
		}
	}
}
