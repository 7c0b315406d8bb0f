package archive

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

// randomHistory generates a short random version history by mutating a
// random starting graph: edits, insertions, deletions, URI renames.
func randomHistory(r *rand.Rand, versions int) []*rdf.Graph {
	type entity struct {
		id      int
		uri     string
		blank   bool
		deleted bool
	}
	var entities []*entity
	nextID := 0
	addEntity := func(blank bool) *entity {
		e := &entity{id: nextID, blank: blank, uri: fmt.Sprintf("http://e/%d", nextID)}
		nextID++
		entities = append(entities, e)
		return e
	}
	for i := 0; i < 4+r.Intn(6); i++ {
		addEntity(r.Intn(4) == 0)
	}
	preds := []string{"p", "q", "r"}
	type edge struct {
		s, o    int // entity ids
		p       string
		lit     string // non-empty for literal objects
		deleted bool
	}
	var edges []*edge
	addEdge := func() {
		live := entities[:0:0]
		for _, e := range entities {
			if !e.deleted {
				live = append(live, e)
			}
		}
		if len(live) < 2 {
			return
		}
		s := live[r.Intn(len(live))]
		ed := &edge{s: s.id, p: preds[r.Intn(len(preds))]}
		if r.Intn(2) == 0 {
			ed.lit = fmt.Sprintf("value %d %d", r.Intn(5), r.Intn(5))
			ed.o = -1
		} else {
			ed.o = live[r.Intn(len(live))].id
		}
		edges = append(edges, ed)
	}
	for i := 0; i < 6+r.Intn(10); i++ {
		addEdge()
	}

	byID := func(id int) *entity {
		for _, e := range entities {
			if e.id == id {
				return e
			}
		}
		return nil
	}
	render := func(v int) *rdf.Graph {
		b := rdf.NewBuilder(fmt.Sprintf("h%d", v))
		node := func(e *entity) rdf.NodeID {
			if e.blank {
				return b.Blank(fmt.Sprintf("b%d", e.id))
			}
			return b.URI(e.uri)
		}
		for _, ed := range edges {
			if ed.deleted {
				continue
			}
			s := byID(ed.s)
			if s == nil || s.deleted {
				continue
			}
			var o rdf.NodeID
			if ed.lit != "" {
				o = b.Literal(ed.lit)
			} else {
				oe := byID(ed.o)
				if oe == nil || oe.deleted {
					continue
				}
				o = node(oe)
			}
			b.Triple(node(s), b.URI(ed.p), o)
		}
		return b.MustGraph()
	}

	var out []*rdf.Graph
	for v := 0; v < versions; v++ {
		out = append(out, render(v))
		// Mutate for the next version.
		for i := 0; i < 1+r.Intn(3); i++ {
			switch r.Intn(5) {
			case 0:
				addEntity(r.Intn(4) == 0)
			case 1:
				addEdge()
			case 2:
				if len(edges) > 1 {
					edges[r.Intn(len(edges))].deleted = true
				}
			case 3:
				// URI rename (ontology change).
				e := entities[r.Intn(len(entities))]
				if !e.blank && !e.deleted {
					e.uri = fmt.Sprintf("http://renamed/%d-%d", e.id, v)
				}
			case 4:
				live := 0
				for _, e := range entities {
					if !e.deleted {
						live++
					}
				}
				e := entities[r.Intn(len(entities))]
				if !e.deleted && live > 3 {
					e.deleted = true
				}
			}
		}
	}
	return out
}

// TestArchiveRandomHistoriesRoundTrip: every version of every random
// history reconstructs exactly, for all option combinations.
func TestArchiveRandomHistoriesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		graphs := randomHistory(r, 2+r.Intn(4))
		for _, opt := range []buildOpts{
			{Align: hybridPair},
			{Align: hybridPair, ResolveAmbiguous: true},
			{Align: overlapPair(1)},
			{Align: overlapPair(1), ResolveAmbiguous: true},
		} {
			a, err := build(graphs, opt)
			if err != nil {
				t.Logf("seed %d: build failed: %v", seed, err)
				return false
			}
			for v, g := range graphs {
				snap, err := a.Snapshot(v)
				if err != nil {
					t.Logf("seed %d v%d: snapshot failed: %v", seed, v, err)
					return false
				}
				if !equalSets(tripleSet(snap), tripleSet(g)) {
					t.Logf("seed %d v%d (opts %+v): mismatch\ngot  %v\nwant %v",
						seed, v, opt, tripleSet(snap), tripleSet(g))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestArchiveStatsInvariants: rows ≤ intervals ≤ total triples; entity
// count at least the maximum per-version node count.
func TestArchiveStatsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		graphs := randomHistory(r, 2+r.Intn(3))
		a, err := build(graphs, buildOpts{Align: hybridPair, ResolveAmbiguous: true})
		if err != nil {
			return false
		}
		st := a.GatherStats()
		if st.Rows > st.Intervals || st.Intervals > st.TotalTriples {
			return false
		}
		maxNodes := 0
		for _, g := range graphs {
			if g.NumNodes() > maxNodes {
				maxNodes = g.NumNodes()
			}
		}
		return st.Entities >= maxNodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
