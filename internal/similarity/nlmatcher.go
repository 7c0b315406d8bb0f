package similarity

import (
	"slices"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// nlMatcher runs the per-round non-literal OverlapMatch of Algorithm 2
// incrementally. A from-scratch round rebuilds the inverted index over B
// and recomputes every node's out-color characterisation and σNL edge list,
// even though a round of Enrich∘Propagate moves only a shrinking set of
// colors and weights while Unaligned only shrinks. The matcher instead
// keeps all three structures alive across rounds and repairs them from the
// round's change list (the nodes whose color or weight Enrich or the
// propagation worklist moved, see Enrich and Engine.Propagate):
//
//   - char(n) and the σNL edge list of n read only the colors and weights
//     of n's outbound neighbourhood, so exactly the recolor dependents
//     (rdf.Graph.Dependents) of the changed nodes can hold stale cache
//     entries — the same locality argument the worklist refinement engine
//     is built on;
//   - the inverted index changes only under those repaired B nodes and
//     under B-set shrinkage, so postings are edited in place.
//
// The repaired index is element-identical to a from-scratch rebuild —
// posting-list order may differ, but candidate sets are deduplicated and
// sorted and the prefix filter reads only posting lengths, so every round's
// H is bit-identical to the one OverlapMatch would discover (the
// oracle property tests pin this).
type nlMatcher struct {
	c       *rdf.Combined
	theta   float64
	workers int
	// scratchRounds disables incrementality: every round rebuilds the
	// index and caches from scratch. Testing/oracle knob.
	scratchRounds bool

	built bool
	// inv indexes the current B by out-color key (postings unordered; see
	// matchIndex.inv).
	inv map[uint64][]rdf.NodeID
	// liveB marks the nodes currently carrying postings in inv; bPrev is
	// the B slice of the previous round.
	liveB []bool
	bPrev []rdf.NodeID
	// Per-node caches, valid when have[n]: char is the deduplicated
	// out-color characterisation in out(n) first-occurrence order, sorted
	// its ascending copy (for the merge screen), nl the σNL edge list
	// ordered by (key, weight).
	char   [][]uint64
	sorted [][]uint64
	nl     [][]nlEdge
	have   []bool

	dirtyMark []bool
	dirty     []rdf.NodeID
	// seen deduplicates characterisations for ensure, which runs on one
	// goroutine.
	seen seenSet[uint64]
}

func newNLMatcher(c *rdf.Combined, theta float64, workers int) *nlMatcher {
	n := c.NumNodes()
	return &nlMatcher{
		c:         c,
		theta:     theta,
		workers:   workers,
		inv:       make(map[uint64][]rdf.NodeID),
		liveB:     make([]bool, n),
		char:      make([][]uint64, n),
		sorted:    make([][]uint64, n),
		nl:        make([][]nlEdge, n),
		have:      make([]bool, n),
		dirtyMark: make([]bool, n),
	}
}

// rebase moves the matcher onto a successor combined graph: node IDs are
// stable, nodes may have been appended and edge sets edited. The per-node
// arrays grow to the new node count (appended nodes start uncached), the
// graph pointer swaps, and the caches and postings of the touched nodes —
// those whose outbound edge set changed — are dropped directly. A changed
// out-edge set is invisible through any neighbour's color or weight, so the
// usual dependent-based repair in update cannot catch it; everything else
// stale is covered by the carry diff the caller feeds into the next round's
// change list (see resumeNLMatcher).
func (m *nlMatcher) rebase(c *rdf.Combined, workers int, touched []rdf.NodeID) {
	m.c = c
	m.workers = workers
	if n := c.NumNodes(); n > len(m.have) {
		m.liveB = append(m.liveB, make([]bool, n-len(m.liveB))...)
		m.char = append(m.char, make([][]uint64, n-len(m.char))...)
		m.sorted = append(m.sorted, make([][]uint64, n-len(m.sorted))...)
		m.nl = append(m.nl, make([][]nlEdge, n-len(m.nl))...)
		m.have = append(m.have, make([]bool, n-len(m.have))...)
		m.dirtyMark = append(m.dirtyMark, make([]bool, n-len(m.dirtyMark))...)
	}
	for _, s := range touched {
		if !m.have[s] {
			continue
		}
		if m.liveB[s] {
			m.removePostings(s)
			m.liveB[s] = false
		}
		m.have[s] = false
	}
}

// round discovers H_i over the unaligned non-literal nodes a, b of xi.
// changed lists the nodes whose color or weight moved since the previous
// round's xi (ignored on the first round, which builds from scratch). The
// scan itself runs through the shared matchIndex machinery, parallel across
// source nodes when the matcher has workers.
func (m *nlMatcher) round(xi *core.Weighted, a, b []rdf.NodeID, changed []rdf.NodeID, hooks core.Hooks) (*WeightedBipartite, error) {
	if err := hooks.Err(); err != nil {
		return nil, err
	}
	if !m.built || m.scratchRounds {
		m.rebuild(xi, b)
	} else {
		m.update(xi, b, changed)
	}
	h := &WeightedBipartite{A: a, B: b}
	if len(a) == 0 || len(b) == 0 {
		return h, nil
	}
	for _, n := range a {
		m.ensure(xi, n)
	}
	ix := &matchIndex[uint64]{
		theta:   m.theta,
		inv:     m.inv,
		sortedB: func(n rdf.NodeID) []uint64 { return m.sorted[n] },
		charA:   func(n rdf.NodeID, _ *matchScratch[uint64]) []uint64 { return m.char[n] },
		dist: func(n, mm rdf.NodeID) (float64, bool) {
			d := nlDistanceEdges(m.nl[n], m.nl[mm])
			return d, d <= m.theta
		},
	}
	if err := ix.scan(h, hooks, m.workers); err != nil {
		return nil, err
	}
	return h, nil
}

// rebuild constructs the index and caches from scratch for the given B.
func (m *nlMatcher) rebuild(xi *core.Weighted, b []rdf.NodeID) {
	m.inv = make(map[uint64][]rdf.NodeID)
	for i := range m.have {
		m.have[i] = false
		m.liveB[i] = false
	}
	for _, n := range b {
		m.ensure(xi, n)
		m.liveB[n] = true
		for _, key := range m.char[n] {
			m.inv[key] = append(m.inv[key], n)
		}
	}
	m.bPrev = append(m.bPrev[:0], b...)
	m.built = true
}

// update repairs the caches and the index for the new round: stale cache
// entries (recolor dependents of the changed nodes) are dropped — live B
// nodes leave the index under their old keys first — then the index is
// shrunk to the new B and (re-)entering B nodes are indexed under fresh
// keys.
func (m *nlMatcher) update(xi *core.Weighted, b []rdf.NodeID, changed []rdf.NodeID) {
	g := m.c.Graph
	dirty := m.dirty[:0]
	for _, n := range changed {
		for _, s := range g.Dependents(n) {
			if !m.dirtyMark[s] {
				m.dirtyMark[s] = true
				dirty = append(dirty, s)
			}
		}
	}
	m.dirty = dirty
	for _, n := range dirty {
		m.dirtyMark[n] = false
		if !m.have[n] {
			continue
		}
		if m.liveB[n] {
			m.removePostings(n)
			m.liveB[n] = false
		}
		m.have[n] = false
	}
	// Unaligned only shrinks under Algorithm 2, but the membership diff is
	// handled both ways regardless: bPrev \ b leaves, b \ live enters.
	inB := m.dirtyMark // scratch; restored to false below
	for _, n := range b {
		inB[n] = true
	}
	for _, n := range m.bPrev {
		if m.liveB[n] && !inB[n] {
			m.removePostings(n)
			m.liveB[n] = false
		}
	}
	for _, n := range b {
		inB[n] = false
	}
	for _, n := range b {
		if !m.liveB[n] {
			m.ensure(xi, n)
			m.liveB[n] = true
			for _, key := range m.char[n] {
				m.inv[key] = append(m.inv[key], n)
			}
		}
	}
	m.bPrev = append(m.bPrev[:0], b...)
}

// removePostings deletes n from the posting list of each of its cached
// keys (swap-delete; posting order is immaterial).
func (m *nlMatcher) removePostings(n rdf.NodeID) {
	for _, key := range m.char[n] {
		list := m.inv[key]
		for i, v := range list {
			if v == n {
				list[i] = list[len(list)-1]
				m.inv[key] = list[:len(list)-1]
				break
			}
		}
	}
}

// ensure computes n's characterisation and σNL edge list under xi if the
// cached entries are stale.
func (m *nlMatcher) ensure(xi *core.Weighted, n rdf.NodeID) {
	if m.have[n] {
		return
	}
	m.char[n] = outColors(&m.seen, m.c, xi.P, n)
	m.sorted[n] = slices.Clone(m.char[n])
	slices.Sort(m.sorted[n])
	m.nl[n] = nlEdges(m.c, xi, n)
	m.have[n] = true
}
