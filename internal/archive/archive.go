// Package archive implements the compact multi-version representation the
// paper proposes as future work (§6): "decorate triples with intervals that
// represent versions where the triple was present", using the constructed
// alignments to connect node identities across versions. It also measures
// the observation §6 bases its second proposal on — "triples tend to enter
// and leave with their subject" — so the design space of moving interval
// information to subject nodes can be evaluated on real version histories.
//
// The archive records alignments; it does not compute them. New starts an
// archive at its first version, and Append records the next version from
// an aligned consecutive pair — the union of the newest archived graph and
// the new version, and a partition of it — which the caller produced (the
// root package runs its session pipeline, Aligner.BuildArchive).
//
// An Archive stores:
//
//   - entities: persistent identities chained across versions through the
//     1-to-1 portion of consecutive alignments, with per-version labels
//     (so URI renames are recorded as label runs on one entity),
//   - triple rows: (subject, predicate, object) entity triples annotated
//     with the version intervals in which the triple was present.
//
// Any version can be reconstructed exactly (Snapshot), and Stats reports
// the compression achieved over storing every version separately.
package archive

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// EntityID is a persistent node identity across versions.
type EntityID int32

// Interval is an inclusive range of version indexes (0-based).
type Interval struct {
	From, To int
}

// labelRun records an entity's label over a version interval.
type labelRun struct {
	label rdf.Label
	iv    Interval
}

// TripleRow is one archived triple with its presence intervals.
type TripleRow struct {
	S, P, O   EntityID
	Intervals []Interval
}

// Archive is the compact multi-version store. Its rows stay sorted strictly
// ascending by (S, P, O): recordVersion merges each version into them, so an
// append needs neither a row index nor a re-sort.
type Archive struct {
	versions int
	labels   [][]labelRun // per entity
	rows     []TripleRow  // strictly ascending by (S, P, O)
	// totalTriples is Σ |E_v| over the input versions.
	totalTriples int
	// tail is the live construction state Append extends; nil for
	// archives loaded from raw columns (FromRaw) until RebuildTail.
	tail *archiveTail
}

// archiveTail is what one Append carries to the next: the newest version's
// graph, its node→entity assignment, and the URI resume map.
type archiveTail struct {
	lastGraph *rdf.Graph
	cur       []EntityID
	// lastSeen maps a URI label to the entity that most recently carried
	// it, so an entity can resume after skipping versions (URIs are
	// persistent identifiers; cf. the paper's disappearing-and-
	// reappearing EFO URIs, §5.1). Renamed-across-a-gap entities cannot
	// be resumed this way and start fresh — conservative but sound.
	lastSeen map[string]EntityID
}

// errNotLatest rejects a pair whose source is not the newest archived graph.
var errNotLatest = errors.New("archive: the pair's source is not the newest archived version (archives loaded from raw columns need RebuildTail)")

// New starts an archive whose one version is g0: every node of g0 is a
// fresh entity.
func New(g0 *rdf.Graph) *Archive {
	a := &Archive{versions: 1}
	cur := make([]EntityID, g0.NumNodes())
	for i := range cur {
		cur[i] = a.newEntity()
	}
	lastSeen := make(map[string]EntityID)
	a.recordVersion(g0, 0, cur, lastSeen)
	a.tail = &archiveTail{lastGraph: g0, cur: cur, lastSeen: lastSeen}
	return a
}

// Append records c's target graph as the next version. c must be the union
// of the newest archived graph (LatestGraph, compared by identity) and the
// new version, and p a partition of c. A target node continues the entity
// of its alignment partner when the two form a class of their own (mutual
// and one-to-one); with resolve set, members of ambiguous classes — several
// nodes on each side, such as predicate-only URIs or duplicated blanks —
// additionally chain by occurrence-profile overlap, which archiving
// direct-mapping exports with per-version prefixes needs: without it every
// predicate entity churns each version and triple rows never chain.
//
// Two archives of one history are identical when their pairs were aligned
// the same way under the same resolve flag: chaining depends on both. On
// an error — a pair that does not extend the newest version, or a
// partition of another graph — the archive is unchanged.
func (a *Archive) Append(c *rdf.Combined, p *core.Partition, resolve bool) error {
	if a.tail == nil || c.SourceGraph() != a.tail.lastGraph {
		return errNotLatest
	}
	if p.Len() != c.NumNodes() {
		return fmt.Errorf("archive: partition of %d nodes for a pair of %d", p.Len(), c.NumNodes())
	}
	next := a.chainEntities(c, p, resolve)
	a.recordVersion(c.TargetGraph(), a.versions, next, a.tail.lastSeen)
	a.versions++
	a.tail.lastGraph, a.tail.cur = c.TargetGraph(), next
	return nil
}

// Clone returns a deep copy of the archive, including the construction tail
// (the newest version's graph is shared — graphs are immutable). Appends to
// the clone leave the original untouched. Label runs and intervals are
// copied into one slab each (see slabCopy).
func (a *Archive) Clone() *Archive {
	b := &Archive{versions: a.versions, totalTriples: a.totalTriples, rows: slices.Clone(a.rows)}
	nRuns, nIvs := 0, 0
	for _, runs := range a.labels {
		nRuns += len(runs)
	}
	for _, r := range a.rows {
		nIvs += len(r.Intervals)
	}
	runSlab, ivSlab := make([]labelRun, 0, nRuns), make([]Interval, 0, nIvs)
	b.labels = make([][]labelRun, len(a.labels))
	for e, runs := range a.labels {
		b.labels[e] = slabCopy(&runSlab, runs)
	}
	for i := range b.rows {
		b.rows[i].Intervals = slabCopy(&ivSlab, b.rows[i].Intervals)
	}
	if a.tail != nil {
		b.tail = &archiveTail{lastGraph: a.tail.lastGraph, cur: slices.Clone(a.tail.cur),
			lastSeen: maps.Clone(a.tail.lastSeen)}
	}
	return b
}

// slabCopy appends src to *slab and returns the copy capped at its length,
// so appending to the copy reallocates it instead of overwriting the next.
func slabCopy[T any](slab *[]T, src []T) []T {
	lo := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[lo:len(*slab):len(*slab)]
}

// chainEntities returns the node→entity assignment of c's target graph,
// continuing the tail's entities across the aligned pair: a target node
// inherits the entity of its alignment partner when the partnership is
// mutual and unambiguous (exactly one node on each side of the class);
// failing that, a URI node resumes the dormant entity that last carried its
// label (identity across gaps); everything else starts a fresh entity.
func (a *Archive) chainEntities(c *rdf.Combined, p *core.Partition, resolve bool) []EntityID {
	cur, lastSeen, g2 := a.tail.cur, a.tail.lastSeen, c.TargetGraph()
	next := make([]EntityID, g2.NumNodes())
	for j := range next {
		next[j] = -1
	}
	used := make([]bool, len(a.labels))
	classes := core.NewAlignment(c, p)
	classes.EachClass(func(src, tgt []rdf.NodeID) {
		if len(src) == 1 && len(tgt) == 1 {
			e := cur[src[0]]
			next[c.ToTarget(tgt[0])] = e
			used[e] = true
		}
	})
	if resolve {
		resolveAmbiguous(classes, cur, next, used)
	}
	for j := range next {
		if next[j] != -1 {
			continue
		}
		n := rdf.NodeID(j)
		if g2.IsURI(n) {
			if e, ok := lastSeen[g2.Label(n).Value]; ok && !used[e] {
				next[j] = e
				used[e] = true
				continue
			}
		}
		next[j] = a.newEntity()
	}
	return next
}

func (a *Archive) newEntity() EntityID {
	a.labels = append(a.labels, nil)
	return EntityID(len(a.labels) - 1)
}

// recordVersion stores labels and triples of one version. entity is the
// version's node→entity assignment, which is injective: chaining hands each
// entity to at most one node of a version.
//
// A URI is noted in lastSeen only when its entity opens a new label run.
// When the entity extends a run, lastSeen already maps the URI to it: the
// previous version noted it, and no other node of either version carries
// the URI, since a URI labels at most one node per version.
func (a *Archive) recordVersion(g *rdf.Graph, v int, entity []EntityID, lastSeen map[string]EntityID) {
	for i := 0; i < g.NumNodes(); i++ {
		e := entity[i]
		runs := a.labels[e]
		l := g.Label(rdf.NodeID(i))
		if len(runs) > 0 && runs[len(runs)-1].label == l && runs[len(runs)-1].iv.To == v-1 {
			a.labels[e][len(runs)-1].iv.To = v
			continue
		}
		a.labels[e] = append(a.labels[e], labelRun{label: l, iv: Interval{v, v}})
		if l.Kind == rdf.URI {
			lastSeen[l.Value] = e
		}
	}
	// Merge the version's ascending, distinct entity keys into the sorted
	// rows: a forward merge-join extends matching rows and compacts the
	// unmatched keys into added; a backward merge then moves the old rows up
	// in place around the new ones, whose intervals share one slab.
	keys := a.versionKeys(g, entity)
	a.totalTriples += g.NumTriples()
	added, i := keys[:0], 0
	for _, k := range keys {
		for i < len(a.rows) && compareKey(a.rows[i].key(), k) < 0 {
			i++
		}
		if i == len(a.rows) || a.rows[i].key() != k {
			added = append(added, k)
			continue
		}
		ivs := a.rows[i].Intervals
		if last := &ivs[len(ivs)-1]; last.To == v-1 {
			last.To = v
		} else if last.To < v {
			a.rows[i].Intervals = append(ivs, Interval{v, v})
		}
	}
	slab := make([]Interval, len(added))
	i = len(a.rows) - 1
	a.rows = slices.Grow(a.rows, len(added))[:len(a.rows)+len(added)]
	for j, w := len(added)-1, len(a.rows)-1; j >= 0; w-- {
		if i >= 0 && compareKey(a.rows[i].key(), added[j]) > 0 {
			a.rows[w] = a.rows[i]
			i--
		} else {
			slab[j] = Interval{v, v}
			a.rows[w] = TripleRow{S: added[j][0], P: added[j][1], O: added[j][2], Intervals: slab[j : j+1 : j+1]}
			j--
		}
	}
}

// versionKeys returns the entity keys of g's triples under the injective
// assignment entity, strictly ascending by (S, P, O). Instead of sorting
// all keys, it inverts the assignment over the subjects, visits them in
// ascending entity order and sorts only each subject's out-edges, each
// (P, O) pair packed into one uint64 (entity IDs are non-negative int32s,
// so the packed order is the pair order).
func (a *Archive) versionKeys(g *rdf.Graph, entity []EntityID) [][3]EntityID {
	// subject[e] is 1 + the node of entity e when that node has out-edges.
	subject := make([]rdf.NodeID, len(a.labels))
	for i := 0; i < g.NumNodes(); i++ {
		if g.OutDegree(rdf.NodeID(i)) > 0 {
			subject[entity[i]] = rdf.NodeID(i) + 1
		}
	}
	keys := make([][3]EntityID, 0, g.NumTriples())
	var po []uint64
	for e, n := range subject {
		if n == 0 {
			continue
		}
		po = po[:0]
		for _, ed := range g.Out(n - 1) {
			po = append(po, uint64(entity[ed.P])<<32|uint64(entity[ed.O]))
		}
		slices.Sort(po)
		for j, k := range po {
			if j == 0 || k != po[j-1] {
				keys = append(keys, [3]EntityID{EntityID(e), EntityID(k >> 32), EntityID(uint32(k))})
			}
		}
	}
	return keys
}

func (r *TripleRow) key() [3]EntityID { return [3]EntityID{r.S, r.P, r.O} }

// Versions returns the number of archived versions.
func (a *Archive) Versions() int { return a.versions }

// NumEntities returns the number of persistent entities.
func (a *Archive) NumEntities() int { return len(a.labels) }

// NumRows returns the number of archived triple rows.
func (a *Archive) NumRows() int { return len(a.rows) }

// Rows exposes the archived rows (read-only).
func (a *Archive) Rows() []TripleRow { return a.rows }

// LabelAt returns the label of an entity at a version, and whether the
// entity is present there.
func (a *Archive) LabelAt(e EntityID, v int) (rdf.Label, bool) {
	for _, run := range a.labels[e] {
		if run.iv.From <= v && v <= run.iv.To {
			return run.label, true
		}
	}
	return rdf.Label{}, false
}

// Snapshot reconstructs version v exactly (up to node identity).
func (a *Archive) Snapshot(v int) (*rdf.Graph, error) {
	g, _, err := a.snapshotEntities(v)
	return g, err
}

// snapshotEntities reconstructs version v together with the node→entity
// assignment of the reconstructed graph — the mapping recordVersion
// originally held for that version, re-expressed over the snapshot's node
// IDs. Blank nodes cannot be mapped back through labels (every blank
// carries the same ⊥ label), so the assignment is collected while the
// builder allocates nodes.
func (a *Archive) snapshotEntities(v int) (*rdf.Graph, []EntityID, error) {
	if v < 0 || v >= a.versions {
		return nil, nil, fmt.Errorf("archive: version %d out of range [0, %d)", v, a.versions)
	}
	b := rdf.NewBuilder(fmt.Sprintf("snapshot-v%d", v+1))
	var entities []EntityID
	node := func(e EntityID) (rdf.NodeID, error) {
		l, ok := a.LabelAt(e, v)
		if !ok {
			return 0, fmt.Errorf("archive: entity %d absent at version %d but referenced by a row", e, v)
		}
		var n rdf.NodeID
		switch l.Kind {
		case rdf.URI:
			n = b.URI(l.Value)
		case rdf.Literal:
			n = b.Literal(l.Value)
		default:
			n = b.Blank(fmt.Sprintf("e%d", e))
		}
		for int(n) >= len(entities) {
			entities = append(entities, -1)
		}
		entities[n] = e
		return n, nil
	}
	for _, row := range a.rows {
		if !covers(row.Intervals, v) {
			continue
		}
		s, err := node(row.S)
		if err != nil {
			return nil, nil, err
		}
		p, err := node(row.P)
		if err != nil {
			return nil, nil, err
		}
		o, err := node(row.O)
		if err != nil {
			return nil, nil, err
		}
		b.Triple(s, p, o)
	}
	g, err := b.Graph()
	if err != nil {
		return nil, nil, err
	}
	return g, entities, nil
}

// CanAppend reports whether the archive carries the construction tail
// Append extends. Archives started by New can always append;
// archives reconstructed from raw columns (FromRaw, i.e. snapshot loads)
// cannot until RebuildTail restores the tail.
func (a *Archive) CanAppend() bool { return a.tail != nil }

// LatestGraph returns the newest archived version's graph without a
// reconstruction when the construction tail is live, and nil otherwise
// (use Snapshot(Versions()-1), or RebuildTail first).
func (a *Archive) LatestGraph() *rdf.Graph {
	if a.tail == nil {
		return nil
	}
	return a.tail.lastGraph
}

// RebuildTail reconstructs the construction tail of an archive loaded from
// raw columns, so Append works on snapshot-loaded archives: the
// newest version's graph is reconstructed (Snapshot semantics — blank
// nodes reappear under synthetic e<id> labels), its node→entity assignment
// is recovered from the label runs, and the URI resume map is replayed
// from every entity's URI runs. Appending to a rebuilt tail chains
// entities exactly as appending to the original archive would: chaining
// reads labels and structure, neither of which the snapshot round-trip
// disturbs. RebuildTail on an archive that already has a tail is a no-op.
func (a *Archive) RebuildTail() error {
	if a.tail != nil {
		return nil
	}
	last := a.versions - 1
	g, entities, err := a.snapshotEntities(last)
	if err != nil {
		return err
	}
	cur := make([]EntityID, g.NumNodes())
	for n := range cur {
		if n >= len(entities) || entities[n] < 0 {
			return fmt.Errorf("archive: rebuild tail: node %d of version %d has no entity", n, last)
		}
		cur[n] = entities[n]
	}
	// lastSeen maps each URI to the entity that most recently carried it:
	// per URI, the entity of the run with the greatest end version (at any
	// single version a URI labels at most one node, hence one entity).
	lastSeen := make(map[string]EntityID)
	lastTo := make(map[string]int)
	for e, runs := range a.labels {
		for _, run := range runs {
			if run.label.Kind != rdf.URI {
				continue
			}
			if to, ok := lastTo[run.label.Value]; !ok || run.iv.To > to {
				lastTo[run.label.Value] = run.iv.To
				lastSeen[run.label.Value] = EntityID(e)
			}
		}
	}
	a.tail = &archiveTail{lastGraph: g, cur: cur, lastSeen: lastSeen}
	return nil
}

func covers(ivs []Interval, v int) bool {
	for _, iv := range ivs {
		if iv.From <= v && v <= iv.To {
			return true
		}
	}
	return false
}

// Stats summarises the archive and quantifies §6's coupling observation.
type Stats struct {
	Versions     int
	TotalTriples int // Σ |E_v| over the inputs
	Rows         int // archived triple rows
	Intervals    int // total interval annotations
	Entities     int
	// CompressionRatio = Rows / TotalTriples: the fraction of per-version
	// triple storage the interval representation needs.
	CompressionRatio float64
	// Subject coupling: how often a triple enters (interval start beyond
	// version 0) or leaves (interval end before the last version)
	// together with its subject entity appearing or disappearing.
	EnterEvents, EnterWithSubject int
	LeaveEvents, LeaveWithSubject int
}

// GatherStats computes the statistics.
func (a *Archive) GatherStats() Stats {
	st := Stats{
		Versions:     a.versions,
		TotalTriples: a.totalTriples,
		Rows:         len(a.rows),
		Entities:     len(a.labels),
	}
	if st.TotalTriples > 0 {
		st.CompressionRatio = float64(st.Rows) / float64(st.TotalTriples)
	}
	present := func(e EntityID, v int) bool {
		if v < 0 || v >= a.versions {
			return false
		}
		_, ok := a.LabelAt(e, v)
		return ok
	}
	for _, row := range a.rows {
		st.Intervals += len(row.Intervals)
		for _, iv := range row.Intervals {
			if iv.From > 0 {
				st.EnterEvents++
				if !present(row.S, iv.From-1) {
					st.EnterWithSubject++
				}
			}
			if iv.To < a.versions-1 {
				st.LeaveEvents++
				if !present(row.S, iv.To+1) {
					st.LeaveWithSubject++
				}
			}
		}
	}
	return st
}

// String renders the stats.
func (s Stats) String() string {
	coupled := func(a, b int) string {
		if b == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(a)/float64(b))
	}
	return fmt.Sprintf(
		"versions=%d totalTriples=%d rows=%d intervals=%d entities=%d compression=%.3f enterWithSubject=%s leaveWithSubject=%s",
		s.Versions, s.TotalTriples, s.Rows, s.Intervals, s.Entities, s.CompressionRatio,
		coupled(s.EnterWithSubject, s.EnterEvents), coupled(s.LeaveWithSubject, s.LeaveEvents))
}
