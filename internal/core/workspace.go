package core

import (
	"math"
	"math/bits"
	"slices"

	"rdfalign/internal/rdf"
)

// Workspace is the refinement state its owner keeps across runs: the
// worklist loop's node-indexed scratch, the grouping-equivalence witnesses
// (renameCheck), and a class index that follows the partition a run is
// refining. An alignment session keeps one per lineage, so a delta pays
// for the nodes it moves, not for arrays sized by the graph or the
// interner; a one-shot alignment creates one per call and runs the same
// code.
//
// The class index holds, for every color, the class's source and target
// member counts and its members (an intrusive list), plus an unaligned
// bitmap over the nodes. Every step that recolors feeds it — the hybrid
// BlankOut through Follow, each applied worklist round, and the in-place
// writes of Propagate's blank-out and Enrich's assignments through Assign
// — so Unaligned reads Unaligned(λ) in O(changes + |Unaligned|) plus one
// word per 64 nodes (the first listing after a rebuild builds the bitmap
// in one O(N) pass), and the worklist reads class sizes from it instead of
// recounting colors. The overlap loop refines one weighted partition in
// place across its rounds, so after the one copy of the hybrid partition
// it starts from, a round costs the nodes it writes.
//
// The index follows exactly one partition, by pointer. A query or a run on
// any other partition rebuilds it with one O(N) pass, so a Workspace is
// always correct and only its cost depends on the caller keeping it fed.
// The partition it follows must change only through the Workspace's own
// steps. A Workspace is not safe for concurrent use.
type Workspace struct {
	// inX marks the recolor set of the running worklist, mark the nodes
	// already on the frontier being built, tracked the nodes already on
	// Propagate's change list.
	inX, mark, tracked stampSet
	rename             renameCheck
	ix                 classIndex

	// Reused worklist buffers.
	frontier, changedNodes []rdf.NodeID
	changes                []change
	wchanges               []wchange
	scratch                []ColorPair

	// rewound is the journal the last Rewind consumed and prevFinal the
	// partition it rewound from, kept for Carry.
	rewound   []rdf.NodeID
	prevFinal *Partition
}

// NewWorkspace returns an empty workspace; its arrays grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// workspace returns the engine's workspace, or a new one for this call
// alone.
func (e *Engine) workspace() *Workspace {
	if e.Work != nil {
		return e.Work
	}
	return NewWorkspace()
}

// Track makes the class index follow p over c, rebuilding it with one
// O(N) pass: only the class rows of the colors p and the previous
// partition use are touched. The rows themselves are indexed by color, so
// the index keeps 12 bytes per color the interner has issued, and a
// lineage's index grows with every delta that mints colors. The journal
// stops until the next Checkpoint.
func (ws *Workspace) Track(c *rdf.Combined, p *Partition) { ws.track(p, c.N1) }

func (ws *Workspace) track(p *Partition, n1 int) {
	ws.ix.rebuild(p, n1)
	ws.rewound, ws.prevFinal = ws.rewound[:0], nil
}

// Drop forgets the followed partition, so the next use rebuilds. Owners
// call it after a failed run, whose partitions are discarded.
func (ws *Workspace) Drop() { ws.ix.valid = false }

// Checkpoint marks p, the deblank partition of a run over c, as the point
// Rewind returns to: the index follows p (rebuilt if it did not) and the
// journal restarts, recording from here every node whose color or weight
// a workspace step changes.
func (ws *Workspace) Checkpoint(c *rdf.Combined, p *Partition) {
	if !ws.ix.tracks(p, c.N1) {
		ws.Track(c, p)
	}
	ws.ix.clearJournal()
	ws.ix.journaling = true
}

// Rewind moves the index from prev — the final partition of the run since
// the last Checkpoint — to next, that checkpoint's partition extended to
// a successor combined graph c: next must equal the checkpoint partition
// on prev's nodes and may append nodes. Only the journaled nodes and the
// appended ones are re-assigned, and the consumed journal is kept for
// Carry. When the index does not follow prev with an unbroken journal (a
// new, dropped or rebuilt workspace), Rewind falls back to Track. The
// journal stays off until the next Checkpoint.
func (ws *Workspace) Rewind(c *rdf.Combined, prev, next *Partition) {
	ix := &ws.ix
	if !ix.tracks(prev, c.N1) || !ix.journaling || next.Len() < prev.Len() {
		ws.Track(c, next)
		return
	}
	ix.journaling = false
	for _, n := range ix.journal {
		ix.inJournal[n] = false
		ix.move(n, prev.colors[n], next.colors[n])
	}
	ws.rewound = append(ws.rewound[:0], ix.journal...)
	ix.journal = ix.journal[:0]
	ix.grow(next.Len())
	for n := prev.Len(); n < next.Len(); n++ {
		ix.insert(rdf.NodeID(n), next.colors[n])
	}
	ix.p = next
	ws.prevFinal = prev
}

// Carry returns, ascending, a superset of the nodes of prev's range whose
// color or weight differs between prev — the partition the last Rewind
// started from — and cur, the partition the index follows now: the
// journal Rewind consumed plus the journal since. ok is false when the
// workspace cannot vouch for that (no Rewind from prev, or a rebuild
// since), and the caller diffs in full. Carry consumes the rewound
// journal.
func (ws *Workspace) Carry(prev, cur *Partition) (nodes []rdf.NodeID, ok bool) {
	if ws.prevFinal != prev || !ws.ix.tracks(cur, ws.ix.n1) || !ws.ix.journaling {
		return nil, false
	}
	nodes = append(append([]rdf.NodeID(nil), ws.rewound...), ws.ix.journal...)
	ws.rewound, ws.prevFinal = ws.rewound[:0], nil
	slices.Sort(nodes)
	return slices.Compact(nodes), true
}

// Follow moves the index from `from` to `to`, a partition equal to from
// except on the listed nodes, and journals those nodes (whose weight may
// have changed too). It does nothing when the index does not follow from;
// the next use on `to` then rebuilds.
func (ws *Workspace) Follow(from, to *Partition, changed []rdf.NodeID) {
	ix := &ws.ix
	if !ix.valid || ix.p != from {
		return
	}
	for _, n := range changed {
		ix.move(n, from.colors[n], to.colors[n])
	}
	ix.p = to
}

// Assign sets node n of xi, a weighted partition its caller owns, to color
// c and weight w in place. When the class index follows xi.P, n is
// re-indexed and journaled like a node an applied worklist round moves;
// otherwise the next use on xi.P rebuilds the index.
func (ws *Workspace) Assign(xi *Weighted, n rdf.NodeID, c Color, w float64) {
	if ix := &ws.ix; ix.valid && ix.p == xi.P {
		ix.move(n, xi.P.colors[n], c)
	}
	xi.P.colors[n] = c
	xi.W[n] = w
}

// Unaligned returns the unaligned nodes of p over c per side, ascending:
// the literals when literals is set, the other nodes otherwise. It equals
// filtering the package-level Unaligned(c, p), which stays the one-shot
// definition for callers outside a run.
func (ws *Workspace) Unaligned(c *rdf.Combined, p *Partition, literals bool) (un1, un2 []rdf.NodeID) {
	if !ws.ix.tracks(p, c.N1) {
		// First query on a partition no workspace step produced (a
		// fresh workspace, or one dropped after an error).
		ws.Track(c, p)
	}
	return ws.ix.list(c, literals)
}

// unalignedNonLiterals returns UN(p) = Unaligned(p) \ Literals (§3.4
// equation 4) as one list: the source list precedes the target list, so
// their concatenation is sorted.
func (ws *Workspace) unalignedNonLiterals(c *rdf.Combined, p *Partition) []rdf.NodeID {
	un1, un2 := ws.Unaligned(c, p, false)
	return append(un1, un2...)
}

// stampSet is a set of small non-negative integers (node IDs or colors)
// that empties in O(1): a key is a member while its slot holds the current
// generation. Slots are reused across resets and runs; when the
// generation would pass math.MaxInt32 the slots are cleared once and
// counting restarts.
type stampSet struct {
	slot []int32
	gen  int32
}

// reset empties the set and makes room for keys below n.
func (s *stampSet) reset(n int) {
	if s.gen == math.MaxInt32 {
		clear(s.slot)
		s.gen = 0
	}
	s.gen++
	if n > len(s.slot) {
		grown := make([]int32, max(n+n/8, 2*len(s.slot)))
		copy(grown, s.slot)
		s.slot = grown
	}
}

func (s *stampSet) has(k int) bool { return s.slot[k] == s.gen }

// add inserts k and reports whether it was absent.
func (s *stampSet) add(k int) bool {
	if s.slot[k] == s.gen {
		return false
	}
	s.slot[k] = s.gen
	return true
}

// colorMap maps colors to a witness (a color and a count) by open
// addressing with linear probing. reset empties it in O(1): a slot is in
// use while it holds the current generation, and when the generation
// would pass math.MaxInt32 the slots are cleared once. The table doubles
// whenever an insert would fill more than half of it, so it is sized by
// the most distinct keys one reset has held, not by the interner.
type colorMap struct {
	slots []colorSlot
	log   uint // len(slots) == 1<<log
	gen   int32
	used  int
}

type colorSlot struct {
	gen   int32
	key   Color
	val   Color
	count int32
}

// reset empties the map.
func (m *colorMap) reset() {
	if m.slots == nil {
		m.slots, m.log = make([]colorSlot, 64), 6
	}
	if m.gen == math.MaxInt32 {
		clear(m.slots)
		m.gen = 0
	}
	m.gen++
	m.used = 0
}

func (m *colorMap) home(k Color) int {
	return int(uint64(uint32(k)) * 0x9E3779B97F4A7C15 >> (64 - m.log))
}

// slot returns k's slot, inserting k when absent, and whether k was
// present. The slot stays valid until the next insert.
func (m *colorMap) slot(k Color) (*colorSlot, bool) {
	if s := m.find(k); s != nil {
		return s, true
	}
	if 2*(m.used+1) > len(m.slots) {
		m.grow()
	}
	m.used++
	mask := len(m.slots) - 1
	i := m.home(k)
	for m.slots[i].gen == m.gen {
		i = (i + 1) & mask
	}
	s := &m.slots[i]
	*s = colorSlot{gen: m.gen, key: k}
	return s, false
}

// grow doubles the table, re-inserting the current generation's slots.
func (m *colorMap) grow() {
	old := m.slots
	m.slots, m.log = make([]colorSlot, 2*len(old)), m.log+1
	mask := len(m.slots) - 1
	for _, s := range old {
		if s.gen != m.gen {
			continue
		}
		i := m.home(s.key)
		for m.slots[i].gen == m.gen {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// find returns k's slot, or nil when k is absent.
func (m *colorMap) find(k Color) *colorSlot {
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.gen != m.gen {
			return nil
		}
		if s.key == k {
			return s
		}
	}
}

// classEntry is one color's row of the class index: its side counts and
// its first member plus one (0: no member).
type classEntry struct {
	src, tgt, head int32
}

// classIndex follows one partition p of a combined graph whose nodes below
// n1 are source nodes. unal has bit n set when node n is unaligned — its
// class has no member on the other side.
//
// The bitmap is built by the first listing after a rebuild and maintained
// from then on (listed), so the moves of a run that nothing lists — a
// deblank fixpoint — update the counts alone. Once listed, a node's bit is
// set when it moves. Its class-mates' bits change only when the count of
// the mover's side crosses zero while the other side has members; such a
// color is queued (pending), and sync walks its members once before the
// next listing, however often it crossed in between. The walks read
// member lists threaded through next/prev (node plus one, 0 ends a list).
// They are built by the first sync that has a color to walk and
// maintained from then on, so a run that never needs a walk — a one-shot
// propagation, a deblank fixpoint — never pays for them.
type classIndex struct {
	p     *Partition
	valid bool
	n1    int

	cls        []classEntry
	listed     bool
	linked     bool
	next, prev []int32
	unal       []uint64
	pending    []Color

	// journal lists, once each, the nodes changed since the last
	// Checkpoint while journaling is on.
	journaling bool
	journal    []rdf.NodeID
	inJournal  []bool
}

func (ix *classIndex) tracks(p *Partition, n1 int) bool {
	return ix.valid && ix.p == p && ix.n1 == n1
}

// size returns the class size of c (0 for colors never assigned).
func (ix *classIndex) size(c Color) int32 {
	if int(c) < len(ix.cls) {
		e := &ix.cls[c]
		return e.src + e.tgt
	}
	return 0
}

// rebuild indexes p from scratch. Only the entries of the colors the
// previous partition used are cleared — every other entry is already
// zero — so the pass is O(N) however large a long-lived interner grew.
func (ix *classIndex) rebuild(p *Partition, n1 int) {
	if ix.p != nil {
		for _, c := range ix.p.colors {
			ix.cls[c] = classEntry{}
		}
	}
	ix.pending = ix.pending[:0]
	ix.clearJournal()
	ix.journaling, ix.listed, ix.linked = false, false, false
	ix.p, ix.n1, ix.valid = p, n1, true
	ix.grow(p.Len())
	ix.growColors(Color(p.in.Size() + p.in.Size()/8))
	for n, c := range p.colors {
		ix.count(rdf.NodeID(n), c, 1)
	}
}

// grow sizes the node-indexed arrays for n nodes.
func (ix *classIndex) grow(n int) {
	if n <= len(ix.inJournal) {
		return
	}
	m := n + n/8
	ix.inJournal = slices.Grow(ix.inJournal, m-len(ix.inJournal))[:m]
	if w := (m + 63) / 64; w > len(ix.unal) {
		ix.unal = slices.Grow(ix.unal, w-len(ix.unal))[:w]
	}
	if ix.linked {
		ix.growLinks(m)
	}
}

func (ix *classIndex) growLinks(m int) {
	if m > len(ix.next) {
		ix.next = slices.Grow(ix.next, m-len(ix.next))[:m]
		ix.prev = slices.Grow(ix.prev, m-len(ix.prev))[:m]
	}
}

// growColors sizes the color-indexed array to cover c, doubling it when a
// run outgrows it: a fresh alignment's interner grows severalfold while
// it refines. New entries are zero: slices.Grow never hands out stale
// elements, and the index never shrinks a slice.
func (ix *classIndex) growColors(c Color) {
	if int(c) < len(ix.cls) {
		return
	}
	m := max(int(c)+1, 2*len(ix.cls))
	ix.cls = slices.Grow(ix.cls, m-len(ix.cls))[:m]
}

func (ix *classIndex) unaligned(n rdf.NodeID, e *classEntry) bool {
	if int(n) < ix.n1 {
		return e.tgt == 0
	}
	return e.src == 0
}

func (ix *classIndex) setBit(n rdf.NodeID, on bool) {
	if on {
		ix.unal[n>>6] |= 1 << (n & 63)
	} else {
		ix.unal[n>>6] &^= 1 << (n & 63)
	}
}

// count adds d to the count of n's side in class c.
func (ix *classIndex) count(n rdf.NodeID, c Color, d int32) {
	if e := &ix.cls[c]; int(n) < ix.n1 {
		e.src += d
	} else {
		e.tgt += d
	}
}

// link adds n to the members of c.
func (ix *classIndex) link(n rdf.NodeID, c Color) {
	e := &ix.cls[c]
	ix.prev[n], ix.next[n] = 0, e.head
	if e.head != 0 {
		ix.prev[e.head-1] = int32(n) + 1
	}
	e.head = int32(n) + 1
}

// unlink removes n from the members of c.
func (ix *classIndex) unlink(n rdf.NodeID, c Color) {
	p, x := ix.prev[n], ix.next[n]
	if p != 0 {
		ix.next[p-1] = x
	} else {
		ix.cls[c].head = x
	}
	if x != 0 {
		ix.prev[x-1] = p
	}
}

// crossing queues c when the count of n's side just crossed zero (it is
// now 0 or 1, as said by side) while the other side has members, whose
// bits flip.
func (ix *classIndex) crossing(n rdf.NodeID, c Color, side int32) {
	e := &ix.cls[c]
	mine, other := e.src, e.tgt
	if int(n) >= ix.n1 {
		mine, other = e.tgt, e.src
	}
	if mine == side && other > 0 {
		ix.pending = append(ix.pending, c)
	}
}

// move re-assigns n from class old to class new.
func (ix *classIndex) move(n rdf.NodeID, old, new Color) {
	ix.note(n)
	if old == new {
		return
	}
	if ix.linked {
		ix.unlink(n, old)
	}
	ix.count(n, old, -1)
	if ix.listed {
		ix.crossing(n, old, 0)
	}
	ix.insert(n, new)
}

// insert adds n, not a member of any class, to class c.
func (ix *classIndex) insert(n rdf.NodeID, c Color) {
	ix.growColors(c)
	if ix.linked {
		ix.link(n, c)
	}
	ix.count(n, c, 1)
	if ix.listed {
		ix.crossing(n, c, 1)
		ix.setBit(n, ix.unaligned(n, &ix.cls[c]))
	}
}

// note journals n.
func (ix *classIndex) note(n rdf.NodeID) {
	if ix.journaling && !ix.inJournal[n] {
		ix.inJournal[n] = true
		ix.journal = append(ix.journal, n)
	}
}

func (ix *classIndex) clearJournal() {
	for _, n := range ix.journal {
		ix.inJournal[n] = false
	}
	ix.journal = ix.journal[:0]
}

// sync walks the members of every queued color once and resets their
// bits, threading the member lists through p's colors first if no walk
// has needed them yet.
func (ix *classIndex) sync() {
	if len(ix.pending) == 0 {
		return
	}
	if !ix.linked {
		ix.linked = true
		ix.growLinks(len(ix.inJournal))
		for n, c := range ix.p.colors {
			ix.link(rdf.NodeID(n), c)
		}
	}
	slices.Sort(ix.pending)
	for _, c := range slices.Compact(ix.pending) {
		e := &ix.cls[c]
		for m := e.head; m != 0; m = ix.next[m-1] {
			ix.setBit(rdf.NodeID(m-1), ix.unaligned(rdf.NodeID(m-1), e))
		}
	}
	ix.pending = ix.pending[:0]
}

// list reads the unaligned nodes off the bitmap, ascending per side,
// building the bitmap with one O(N) pass on the first listing since the
// rebuild.
func (ix *classIndex) list(c *rdf.Combined, literals bool) (un1, un2 []rdf.NodeID) {
	if !ix.listed {
		ix.listed = true
		clear(ix.unal)
		for n, col := range ix.p.colors {
			ix.setBit(rdf.NodeID(n), ix.unaligned(rdf.NodeID(n), &ix.cls[col]))
		}
	}
	ix.sync()
	for w, word := range ix.unal {
		for word != 0 {
			n := rdf.NodeID(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			if c.IsLiteral(n) != literals {
				continue
			}
			if int(n) < ix.n1 {
				un1 = append(un1, n)
			} else {
				un2 = append(un2, n)
			}
		}
	}
	return un1, un2
}
