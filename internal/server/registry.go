// Package server implements the resident-archive alignment service behind
// cmd/rdfalignd: archives loaded from binary snapshots are kept in memory,
// read-only relation queries (aligned / distance / matches /
// resolve-across-versions / stats / versions) are served concurrently from
// an immutable published head, and new versions or delta scripts are
// aligned asynchronously through the session API (Aligner, ApplyDelta,
// AppendAlignment) by a job pool whose worker budget is disjoint from the
// query path, so one huge alignment can never starve queries.
//
// Concurrency model: every archive is one registry entry holding an
// atomic pointer to its current head — the archive columns, the newest
// version's graph, and the live alignment session (anchor version →
// newest version). A head is immutable once published (its lazy caches
// are sync.Once-guarded), so readers loading the pointer always see a
// consistent snapshot and never a torn state. Writers (version uploads,
// delta applications) build a new head on a cloned archive and publish it
// with one atomic swap, serialised per entry; a delta job that lost the
// race surfaces the session's ErrStaleAlignment as ErrConflict (HTTP 409).
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rdfalign"
	"rdfalign/internal/archive"
	"rdfalign/internal/rdf"
	"rdfalign/internal/snapshot"
)

// Sentinel errors, mapped onto HTTP statuses by the handlers.
var (
	// ErrNotFound reports a name with no registry entry (HTTP 404).
	ErrNotFound = errors.New("server: archive not found")
	// ErrConflict reports an update that lost a concurrent race: the
	// alignment session it was based on is no longer the newest version
	// (the session API's ErrStaleAlignment), or its base head was
	// superseded while it waited for an alignment slot (HTTP 409).
	ErrConflict = errors.New("server: conflicting concurrent update")
	// ErrNoAlignment reports a relation query against an archive whose
	// head has no aligned pair yet (a single-version archive; HTTP 409).
	ErrNoAlignment = errors.New("server: archive has a single version; no aligned pair to query yet")
	// ErrExists reports a create over an existing archive without
	// replace semantics (HTTP 409).
	ErrExists = errors.New("server: archive already exists")
	// ErrBadDelta reports an edit script that does not apply to the
	// version it was submitted against (HTTP 400).
	ErrBadDelta = errors.New("server: delta does not apply")
)

// VersionInfo summarises one archived version for the /versions endpoint.
type VersionInfo struct {
	Version int `json:"version"`
	Nodes   int `json:"nodes"`
	Triples int `json:"triples"`
}

// head is one published state of an archive: immutable after publication,
// safe for any number of concurrent readers. The lazy caches (URI
// indexes, per-version entity indexes, stats) are sync.Once-guarded so
// the first query of each kind builds them and later queries share them.
type head struct {
	arch *archive.Archive
	// al is the entry aligner this head's alignment came from;
	// depth-bounded per-query alignments (?depth=k) derive k-bounded
	// sessions from it on first use (see alignAt).
	al *rdfalign.Aligner
	// anchorVersion/latest describe the live alignment session: align is
	// the maintained alignment anchorVersion → version-1 (the newest
	// version), nil while the archive has a single version. Delta
	// applications advance the session target and keep the anchor
	// (ApplyDelta maintenance); full graph uploads re-anchor at the
	// previously newest version.
	anchorVersion int
	anchor        *rdfalign.Graph
	latest        *rdfalign.Graph
	align         *rdfalign.Alignment
	version       int // == arch.Versions()

	statsOnce sync.Once
	stats     rdfalign.ArchiveStats

	versionsOnce sync.Once
	versionInfos []VersionInfo

	// anchorURI and latestURI index the URIs of anchor and latest. A head
	// whose anchor or latest is the previous head's graph shares that
	// head's index, and the append jobs build latestURI before they
	// publish, so queries after a publish find both built.
	anchorURI, latestURI *uriIndex

	// depthAligns caches the k-bounded alignments of the head's pair, one
	// per queried depth. Heads are immutable, so the cache never needs
	// invalidation: publishing a new head starts an empty cache.
	depthMu     sync.Mutex
	depthAligns map[int]*rdfalign.Alignment
	entOnce     []sync.Once
	entIdx      []map[string]archive.EntityID
	entIdxMu    sync.Mutex // guards entIdx slot writes (entOnce serialises per slot)
}

// Stats returns the archive statistics, computed once per head.
func (h *head) Stats() rdfalign.ArchiveStats {
	h.statsOnce.Do(func() { h.stats = h.arch.GatherStats() })
	return h.stats
}

// VersionInfos returns per-version node/triple counts, computed once per
// head from the label runs and row intervals.
func (h *head) VersionInfos() []VersionInfo {
	h.versionsOnce.Do(func() {
		infos := make([]VersionInfo, h.version)
		for v := range infos {
			infos[v].Version = v
		}
		for e := 0; e < h.arch.NumEntities(); e++ {
			for v := 0; v < h.version; v++ {
				if _, ok := h.arch.LabelAt(archive.EntityID(e), v); ok {
					infos[v].Nodes++
				}
			}
		}
		for _, row := range h.arch.Rows() {
			for _, iv := range row.Intervals {
				for v := iv.From; v <= iv.To; v++ {
					infos[v].Triples++
				}
			}
		}
		h.versionInfos = infos
	})
	return h.versionInfos
}

// uriIndex maps the URI labels of one graph to their nodes, built once on
// first use; Graph.FindURI is a linear scan, far too slow for the query
// path. A nil graph indexes nothing.
type uriIndex struct {
	g    *rdfalign.Graph
	once sync.Once
	m    map[string]rdfalign.NodeID
}

// build indexes the graph unless an earlier call did.
func (x *uriIndex) build() {
	x.once.Do(func() {
		if x.g == nil {
			return
		}
		x.m = make(map[string]rdfalign.NodeID, x.g.NumURIs())
		x.g.Nodes(func(n rdfalign.NodeID) {
			if x.g.IsURI(n) {
				x.m[x.g.Label(n).Value] = n
			}
		})
	})
}

func (x *uriIndex) find(uri string) (rdfalign.NodeID, bool) {
	x.build()
	n, ok := x.m[uri]
	return n, ok
}

// uriIndexFor returns prev's index of g when prev, the head published
// before this one, indexes that same graph, and a new one otherwise.
func uriIndexFor(prev *head, g *rdfalign.Graph) *uriIndex {
	if prev != nil && g != nil {
		for _, x := range [...]*uriIndex{prev.anchorURI, prev.latestURI} {
			if x.g == g {
				return x
			}
		}
	}
	return &uriIndex{g: g}
}

// findAnchor resolves a URI in the alignment's source (anchor) graph.
func (h *head) findAnchor(uri string) (rdfalign.NodeID, bool) {
	return h.anchorURI.find(uri)
}

// findLatest resolves a URI in the alignment's target (newest) graph.
func (h *head) findLatest(uri string) (rdfalign.NodeID, bool) {
	return h.latestURI.find(uri)
}

// alignAt returns the head's alignment at the given depth bound: depth <= 0
// is the exact head alignment, depth k > 0 the k-bounded (k-bisimulation)
// alignment of the same anchor/latest pair, computed on first use and
// cached on the head. An approximate query therefore never pays a full
// exact align — the first query at each k pays one k-bounded align (far
// cheaper on deep fixpoints), and later queries at that k are served from
// the cache. A concurrent first query may compute the same alignment
// twice; the first published result wins, and both are bit-identical by
// the per-k determinism guarantee.
func (h *head) alignAt(ctx context.Context, depth int) (*rdfalign.Alignment, error) {
	if h.align == nil {
		return nil, ErrNoAlignment
	}
	if depth <= 0 {
		return h.align, nil
	}
	h.depthMu.Lock()
	a, ok := h.depthAligns[depth]
	h.depthMu.Unlock()
	if ok {
		return a, nil
	}
	// Detach the entry's progress sink: a query-path align must not
	// interleave its rounds into a running job's progress.
	dal, err := h.al.With(rdfalign.WithMaxDepth(depth), rdfalign.WithProgress(nil))
	if err != nil {
		return nil, err
	}
	a, err = dal.Align(ctx, h.anchor, h.latest)
	if err != nil {
		return nil, err
	}
	h.depthMu.Lock()
	if prev, ok := h.depthAligns[depth]; ok {
		a = prev
	} else {
		if h.depthAligns == nil {
			h.depthAligns = make(map[int]*rdfalign.Alignment)
		}
		h.depthAligns[depth] = a
	}
	h.depthMu.Unlock()
	return a, nil
}

// entityAt resolves a URI to its entity at version v, building the
// per-version index on first use.
func (h *head) entityAt(v int, uri string) (archive.EntityID, bool) {
	if v < 0 || v >= h.version {
		return 0, false
	}
	h.entOnce[v].Do(func() {
		idx := make(map[string]archive.EntityID)
		for e := 0; e < h.arch.NumEntities(); e++ {
			if l, ok := h.arch.LabelAt(archive.EntityID(e), v); ok && l.Kind == rdf.URI {
				idx[l.Value] = archive.EntityID(e)
			}
		}
		h.entIdxMu.Lock()
		h.entIdx[v] = idx
		h.entIdxMu.Unlock()
	})
	h.entIdxMu.Lock()
	idx := h.entIdx[v]
	h.entIdxMu.Unlock()
	e, ok := idx[uri]
	return e, ok
}

// progressFunc observes alignment progress (rdfalign.ProgressFunc shape).
type progressFunc func(rdfalign.Progress)

// entry is one registered archive: the atomically-published head plus the
// entry-scoped alignment session and the mutex serialising updates.
type entry struct {
	name string
	// al is the entry's aligner: the server's base options plus progress
	// routing to the entry's current sink (the running job). All aligns
	// and delta maintenances of this entry run through it, so a published
	// head's alignment can always be advanced by a later ApplyDelta.
	al   *rdfalign.Aligner
	sink atomic.Pointer[progressFunc]
	head atomic.Pointer[head]
	// appendMu serialises head publications (uploads, deltas). Queries
	// never take it.
	appendMu sync.Mutex
}

func (e *entry) observe(p rdfalign.Progress) {
	if f := e.sink.Load(); f != nil {
		(*f)(p)
	}
}

// setSink routes the entry's alignment progress to f (nil to detach).
func (e *entry) setSink(f progressFunc) {
	if f == nil {
		e.sink.Store(nil)
		return
	}
	e.sink.Store(&f)
}

// Registry holds the resident archives.
type Registry struct {
	base *rdfalign.Aligner
	mu   sync.RWMutex
	m    map[string]*entry
}

// NewRegistry returns an empty registry whose entries derive their
// alignment sessions from base.
func NewRegistry(base *rdfalign.Aligner) *Registry {
	return &Registry{base: base, m: make(map[string]*entry)}
}

// Names returns the registered archive names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Head returns the current head of the named archive.
func (r *Registry) Head(name string) (*head, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, err
	}
	return e.head.Load(), nil
}

func (r *Registry) entry(name string) (*entry, error) {
	r.mu.RLock()
	e := r.m[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// newHead assembles and caches the derived-state shell around an archive
// state. al is the entry's aligner, kept for depth-bounded query-path
// alignments; prev is the head this one succeeds (nil for none), whose URI
// indexes it shares where the graphs are the same. Callers publish the
// result with entry.head.Store.
func newHead(al *rdfalign.Aligner, arch *archive.Archive, anchorVersion int, anchor, latest *rdfalign.Graph, align *rdfalign.Alignment, prev *head) *head {
	v := arch.Versions()
	return &head{
		arch:          arch,
		al:            al,
		anchorVersion: anchorVersion,
		anchor:        anchor,
		latest:        latest,
		align:         align,
		version:       v,
		anchorURI:     uriIndexFor(prev, anchor),
		latestURI:     uriIndexFor(prev, latest),
		entOnce:       make([]sync.Once, v),
		entIdx:        make([]map[string]archive.EntityID, v),
	}
}

// Create registers an archive under name and publishes its first head.
// The archive must be appendable (RebuildTail has run if it was loaded
// from a snapshot); when it has at least two versions the newest
// consecutive pair is aligned through the entry's session, so relation
// queries work immediately. With replace set an existing entry is
// atomically superseded; otherwise an existing name is ErrExists.
func (r *Registry) Create(ctx context.Context, name string, arch *archive.Archive, replace bool) error {
	// Refuse a taken name before the work below; the locked check at the
	// end still catches a Create that raced this one.
	if _, err := r.entry(name); err == nil && !replace {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if !arch.CanAppend() {
		if err := arch.RebuildTail(); err != nil {
			return fmt.Errorf("server: load %q: %w", name, err)
		}
	}
	e := &entry{name: name}
	eal, err := r.base.With(rdfalign.WithProgress(e.observe))
	if err != nil {
		return err
	}
	e.al = eal

	latest := arch.LatestGraph()
	var (
		anchor        *rdfalign.Graph
		align         *rdfalign.Alignment
		anchorVersion = arch.Versions() - 1
	)
	if arch.Versions() >= 2 {
		anchorVersion = arch.Versions() - 2
		if anchor, err = arch.Snapshot(anchorVersion); err != nil {
			return fmt.Errorf("server: load %q: %w", name, err)
		}
		if align, err = eal.Align(ctx, anchor, latest); err != nil {
			return fmt.Errorf("server: align %q head pair: %w", name, err)
		}
	}
	e.head.Store(newHead(eal, arch, anchorVersion, anchor, latest, align, nil))

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; ok && !replace {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	r.m[name] = e
	return nil
}

// AppendGraph aligns g as a new version of the named archive and
// publishes the new head: the session re-anchors at the previously newest
// version, the archive records the session's pair on a clone
// (AppendAlignment), and the swap is atomic. sink, when non-nil, observes
// the alignment progress.
func (r *Registry) AppendGraph(ctx context.Context, name string, g *rdfalign.Graph, sink progressFunc) (*head, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, err
	}
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	e.setSink(sink)
	defer e.setSink(nil)

	return e.appendVersion(ctx, e.head.Load(), g)
}

// appendVersion publishes g as the version after head cur: it aligns the
// pair (cur.latest, g), which re-anchors the session at cur's newest
// version, and publishes it. The caller holds e.appendMu.
func (e *entry) appendVersion(ctx context.Context, cur *head, g *rdfalign.Graph) (*head, error) {
	align, err := e.al.Align(ctx, cur.latest, g)
	if err != nil {
		return nil, err
	}
	return e.publish(ctx, cur, cur.version-1, align)
}

// publish records align's target as the version after head cur on a clone
// of cur's archive and swaps in the head whose session is align, anchored
// at version anchorVersion (align's source). AppendAlignment records
// align's own partition when its pair is the archive's tail pair (an
// upload) and aligns the tail pair otherwise (a delta maintained from an
// older anchor). The caller holds e.appendMu.
func (e *entry) publish(ctx context.Context, cur *head, anchorVersion int, align *rdfalign.Alignment) (*head, error) {
	arch2 := cur.arch.Clone()
	if err := e.al.AppendAlignment(ctx, arch2, align); err != nil {
		return nil, err
	}
	h := newHead(e.al, arch2, anchorVersion, align.Source(), align.Target(), align, cur)
	h.latestURI.build()
	e.head.Store(h)
	return h, nil
}

// AppendDelta applies an edit script to the head captured at submission
// time: the session alignment is maintained in place (ApplyDelta — cost
// proportional to the edit), the archive is extended on a clone, and the
// new head is published atomically. A captured head that is no longer
// current fails with ErrConflict: deltas are authored against a specific
// version, so a lost race must surface instead of applying to a different
// base — when a concurrent delta advanced the same session lineage, that
// is exactly the session API's ErrStaleAlignment.
func (r *Registry) AppendDelta(ctx context.Context, name string, captured *head, script *rdfalign.EditScript, sink progressFunc) (*head, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, err
	}
	e.appendMu.Lock()
	defer e.appendMu.Unlock()
	e.setSink(sink)
	defer e.setSink(nil)

	cur := e.head.Load()
	if captured.align == nil {
		// No live pair to maintain: apply the script directly and treat
		// the result as a fresh version upload.
		if cur != captured {
			return nil, fmt.Errorf("%w: archive %q advanced past the delta's base version %d", ErrConflict, name, captured.version-1)
		}
		g2, err := rdfalign.ApplyEditScript(captured.latest, script)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
		}
		return e.appendVersion(ctx, cur, g2)
	}

	// Maintain the captured session. If a concurrent delta advanced the
	// lineage first, ApplyDelta version-gates it: ErrStaleAlignment.
	a2, err := captured.align.ApplyDelta(ctx, script)
	if errors.Is(err, rdfalign.ErrStaleAlignment) {
		return nil, fmt.Errorf("%w: %v", ErrConflict, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDelta, err)
	}
	// A full graph upload replaces the session instead of advancing it;
	// the maintained result would extend a superseded archive state.
	if cur != captured {
		return nil, fmt.Errorf("%w: archive %q was replaced past the delta's base version %d", ErrConflict, name, captured.version-1)
	}
	return e.publish(ctx, cur, captured.anchorVersion, a2)
}

// detectSnapshot reports whether data starts with the snapshot container
// magic.
func detectSnapshot(data []byte) bool {
	return bytes.HasPrefix(data, []byte(snapshot.Magic))
}
