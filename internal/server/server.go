package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"rdfalign"
	"rdfalign/internal/rdf"
	"rdfalign/internal/snapshot"
)

// Config sizes and parameterises a Server. The zero value is usable:
// default aligner, one alignment job at a time, sixteen query slots, a
// ten-second query deadline.
type Config struct {
	// Aligner is the base session configuration every archive's
	// alignments derive from (method, theta, parallelism, ...). Nil means
	// rdfalign.NewAligner() defaults.
	Aligner *rdfalign.Aligner
	// QueryWorkers caps concurrently executing read-only queries.
	// Non-positive selects 16.
	QueryWorkers int
	// AlignJobs caps concurrently running alignment jobs (uploads,
	// deltas, synchronous loads). Non-positive selects 1. The pool is
	// disjoint from the query pool: alignments never starve queries.
	AlignJobs int
	// QueryTimeout bounds one query, including its wait for a query
	// slot. Non-positive selects 10s.
	QueryTimeout time.Duration
	// MaxUploadBytes bounds request bodies (snapshots, N-Triples,
	// deltas); oversized uploads are rejected with 413 before they can
	// balloon the heap. Non-positive selects DefaultMaxUploadBytes.
	MaxUploadBytes int64
	// JobHistory bounds the terminal jobs retained per archive: older
	// terminal jobs are evicted from the job table (GET /jobs/{id} then
	// 404s), so the table stays bounded under sustained upload traffic.
	// In-flight jobs are never evicted. Non-positive selects
	// DefaultJobHistory (64).
	JobHistory int
	// Logf, when non-nil, receives one line per request-changing event
	// (loads, job transitions).
	Logf func(format string, args ...any)
}

// Server is the resident-archive alignment service: an http.Handler
// serving the REST API plus the registry, job table and worker budget
// behind it.
type Server struct {
	cfg    Config
	base   *rdfalign.Aligner
	reg    *Registry
	budget *Budget
	jobs   *Jobs
	mux    *http.ServeMux
}

// New assembles a server from cfg.
func New(cfg Config) (*Server, error) {
	base := cfg.Aligner
	if base == nil {
		var err error
		if base, err = rdfalign.NewAligner(); err != nil {
			return nil, err
		}
	}
	if cfg.QueryWorkers <= 0 {
		cfg.QueryWorkers = 16
	}
	if cfg.AlignJobs <= 0 {
		cfg.AlignJobs = 1
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 10 * time.Second
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	s := &Server{
		cfg:    cfg,
		base:   base,
		reg:    NewRegistry(base),
		budget: NewBudget(cfg.QueryWorkers, cfg.AlignJobs),
		jobs:   NewJobs(cfg.JobHistory),
	}
	s.mux = s.buildMux()
	return s, nil
}

// Registry exposes the archive registry (startup loading, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Budget exposes the worker budget (introspection, tests).
func (s *Server) Budget() *Budget { return s.budget }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels all in-flight jobs. The server must not receive further
// requests concurrently with Close.
func (s *Server) Close() { s.jobs.CancelAll() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// LoadSnapshotFile loads the snapshot at path — graph or archive,
// auto-detected — and registers it under name, aligning the newest pair
// through the alignment pool. Startup path of cmd/rdfalignd.
func (s *Server) LoadSnapshotFile(ctx context.Context, name, path string) error {
	h, err := rdfalign.OpenSnapshot(path)
	if err != nil {
		return err
	}
	defer h.Close()
	var arch *rdfalign.Archive
	if h.IsArchive() {
		if arch, err = h.Archive(); err != nil {
			return err
		}
	} else {
		g, err := h.Graph()
		if err != nil {
			return err
		}
		if arch, err = s.base.BuildArchive(ctx, []*rdfalign.Graph{g}); err != nil {
			return err
		}
	}
	if err := s.budget.AcquireAlign(ctx); err != nil {
		return err
	}
	defer s.budget.ReleaseAlign()
	if err := s.reg.Create(ctx, name, arch, false); err != nil {
		return err
	}
	s.logf("loaded %q from %s: %d versions", name, path, arch.Versions())
	return nil
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /archives", s.query(s.handleArchives))
	mux.HandleFunc("PUT /archives/{name}", s.handlePutArchive)
	mux.HandleFunc("GET /archives/{name}", s.query(s.handleArchive))
	mux.HandleFunc("GET /archives/{name}/stats", s.query(s.handleStats))
	mux.HandleFunc("GET /archives/{name}/versions", s.query(s.handleVersions))
	mux.HandleFunc("GET /archives/{name}/versions/{v}", s.query(s.handleVersion))
	mux.HandleFunc("POST /archives/{name}/versions", s.handlePostVersion)
	mux.HandleFunc("POST /archives/{name}/deltas", s.handlePostDelta)
	mux.HandleFunc("GET /archives/{name}/aligned", s.query(s.handleAligned))
	mux.HandleFunc("GET /archives/{name}/distance", s.query(s.handleDistance))
	mux.HandleFunc("GET /archives/{name}/matches", s.query(s.handleMatches))
	mux.HandleFunc("GET /archives/{name}/resolve", s.query(s.handleResolve))
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancelJob)
	return mux
}

// query wraps a read-only handler with the query half of the worker
// budget and the per-query deadline. Alignment jobs hold slots from the
// other half, so a query never waits behind an alignment.
func (s *Server) query(h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
		defer cancel()
		if err := s.budget.AcquireQuery(ctx); err != nil {
			writeError(w, http.StatusServiceUnavailable, "query budget: "+err.Error())
			return
		}
		defer s.budget.ReleaseQuery()
		if err := h(w, r.WithContext(ctx)); err != nil {
			writeError(w, statusOf(err), err.Error())
		}
	}
}

// statusOf maps the service's error taxonomy onto HTTP statuses.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrBadDelta):
		return http.StatusBadRequest
	case errors.Is(err, ErrConflict), errors.Is(err, ErrExists), errors.Is(err, ErrNoAlignment):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"archives":     len(s.reg.Names()),
		"query_active": s.budget.QueryActive(),
		"query_slots":  s.budget.QuerySlots(),
		"align_active": s.budget.AlignActive(),
		"align_slots":  s.budget.AlignSlots(),
	})
}

// archiveSummary is the GET /archives/{name} response body.
type archiveSummary struct {
	Name          string         `json:"name"`
	Versions      int            `json:"versions"`
	Entities      int            `json:"entities"`
	Rows          int            `json:"rows"`
	Aligned       bool           `json:"aligned"`
	AnchorVersion int            `json:"anchor_version"`
	TargetVersion int            `json:"target_version"`
	Latest        rdfalign.Stats `json:"latest"`
}

func (s *Server) summaryOf(name string, h *head) archiveSummary {
	return archiveSummary{
		Name:          name,
		Versions:      h.version,
		Entities:      h.arch.NumEntities(),
		Rows:          h.arch.NumRows(),
		Aligned:       h.align != nil,
		AnchorVersion: h.anchorVersion,
		TargetVersion: h.version - 1,
		Latest:        rdfalign.GatherStats(h.latest),
	}
}

func (s *Server) handleArchives(w http.ResponseWriter, r *http.Request) error {
	names := s.reg.Names()
	out := make([]archiveSummary, 0, len(names))
	for _, n := range names {
		if h, err := s.reg.Head(n); err == nil {
			out = append(out, s.summaryOf(n, h))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"archives": out})
	return nil
}

func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	h, err := s.reg.Head(name)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, s.summaryOf(name, h))
	return nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	h, err := s.reg.Head(r.PathValue("name"))
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, h.Stats())
	return nil
}

func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) error {
	h, err := s.reg.Head(r.PathValue("name"))
	if err != nil {
		return err
	}
	resp := map[string]any{"versions": h.VersionInfos()}
	if h.align != nil {
		resp["aligned_pair"] = map[string]int{"source": h.anchorVersion, "target": h.version - 1}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) error {
	h, err := s.reg.Head(r.PathValue("name"))
	if err != nil {
		return err
	}
	v, err := strconv.Atoi(r.PathValue("v"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad version number")
		return nil
	}
	g := h.latest
	if v != h.version-1 {
		if g, err = h.arch.Snapshot(v); err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return nil
		}
	}
	w.Header().Set("Content-Type", "application/n-triples")
	return rdfalign.WriteNTriples(w, g)
}

// Term is a node label in query responses.
type Term struct {
	Kind  string `json:"kind"` // "uri", "literal" or "blank"
	Value string `json:"value,omitempty"`
}

// termOf is the response term of label l, classified by its kind: an
// empty literal is a literal, and a blank carries no value.
func termOf(l rdf.Label) Term {
	switch l.Kind {
	case rdf.URI:
		return Term{Kind: "uri", Value: l.Value}
	case rdf.Literal:
		return Term{Kind: "literal", Value: l.Value}
	default:
		return Term{Kind: "blank"}
	}
}

// alignedPair resolves the source/target URI query parameters against the
// head's aligned pair. Unknown URIs are reported with found flags rather
// than errors so clients can distinguish "not in this version" from "not
// aligned".
func (h *head) alignedPair(r *http.Request) (src, tgt rdfalign.NodeID, srcOK, tgtOK bool) {
	src, srcOK = h.findAnchor(r.URL.Query().Get("source"))
	tgt, tgtOK = h.findLatest(r.URL.Query().Get("target"))
	return src, tgt, srcOK, tgtOK
}

// parseDepth reads the optional ?depth=k parameter of the relation
// endpoints: k > 0 selects the k-bounded (k-bisimulation) alignment of the
// head pair, served from the head's per-k cache; 0 or absent selects the
// exact alignment. A malformed or negative value writes a 400 and reports
// ok = false.
func parseDepth(w http.ResponseWriter, r *http.Request) (depth int, ok bool) {
	v := r.URL.Query().Get("depth")
	if v == "" {
		return 0, true
	}
	d, err := strconv.Atoi(v)
	if err != nil || d < 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("depth %q outside [0, ∞) (zero or absent selects the exact alignment)", v))
		return 0, false
	}
	return d, true
}

func (s *Server) handleAligned(w http.ResponseWriter, r *http.Request) error {
	h, err := s.reg.Head(r.PathValue("name"))
	if err != nil {
		return err
	}
	depth, ok := parseDepth(w, r)
	if !ok {
		return nil
	}
	a, err := h.alignAt(r.Context(), depth)
	if err != nil {
		return err
	}
	src, tgt, srcOK, tgtOK := h.alignedPair(r)
	writeJSON(w, http.StatusOK, map[string]any{
		"source_found": srcOK,
		"target_found": tgtOK,
		"aligned":      srcOK && tgtOK && a.Aligned(src, tgt),
		"depth":        depth,
	})
	return nil
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) error {
	h, err := s.reg.Head(r.PathValue("name"))
	if err != nil {
		return err
	}
	depth, ok := parseDepth(w, r)
	if !ok {
		return nil
	}
	a, err := h.alignAt(r.Context(), depth)
	if err != nil {
		return err
	}
	src, tgt, srcOK, tgtOK := h.alignedPair(r)
	resp := map[string]any{"source_found": srcOK, "target_found": tgtOK, "depth": depth}
	if srcOK && tgtOK {
		resp["distance"] = a.Distance(src, tgt)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleMatches(w http.ResponseWriter, r *http.Request) error {
	h, err := s.reg.Head(r.PathValue("name"))
	if err != nil {
		return err
	}
	depth, ok := parseDepth(w, r)
	if !ok {
		return nil
	}
	a, err := h.alignAt(r.Context(), depth)
	if err != nil {
		return err
	}
	uri := r.URL.Query().Get("uri")
	n, found := h.findAnchor(uri)
	if !found {
		writeJSON(w, http.StatusOK, map[string]any{"found": false, "matches": []Term{}, "depth": depth})
		return nil
	}
	ids := a.MatchesOf(n)
	matches := make([]Term, len(ids))
	for i, m := range ids {
		matches[i] = termOf(h.latest.Label(m))
	}
	writeJSON(w, http.StatusOK, map[string]any{"found": true, "matches": matches, "depth": depth})
	return nil
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) error {
	h, err := s.reg.Head(r.PathValue("name"))
	if err != nil {
		return err
	}
	q := r.URL.Query()
	uri := q.Get("uri")
	from, to := 0, h.version-1
	if v := q.Get("from"); v != "" {
		if from, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, "bad from version")
			return nil
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.Atoi(v); err != nil {
			writeError(w, http.StatusBadRequest, "bad to version")
			return nil
		}
	}
	resp := map[string]any{"uri": uri, "from": from, "to": to}
	e, ok := h.entityAt(from, uri)
	if !ok {
		resp["found"] = false
		writeJSON(w, http.StatusOK, resp)
		return nil
	}
	resp["found"] = true
	resp["entity"] = int(e)
	if l, present := h.arch.LabelAt(e, to); present {
		resp["present"] = true
		resp["label"] = termOf(l)
	} else {
		resp["present"] = false
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// DefaultMaxUploadBytes is the request-body bound when the configuration
// leaves MaxUploadBytes unset: large enough for multi-million-triple
// snapshot uploads, small enough that one errant PUT cannot take the
// process down.
const DefaultMaxUploadBytes = 256 << 20

// ErrBodyTooLarge is wrapped by readBody when a request body exceeds
// MaxUploadBytes; handlers map it to 413 Request Entity Too Large.
var ErrBodyTooLarge = errors.New("request body too large")

// readBody slurps a size-capped request body.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, fmt.Errorf("%w: body exceeds the server's %d-byte upload limit (-max-body-bytes)", ErrBodyTooLarge, mbe.Limit)
		}
		return nil, fmt.Errorf("read body: %w", err)
	}
	return data, nil
}

// bodyStatus maps a readBody error to its HTTP status: 413 for an
// oversized body, 400 for anything else wrong with reading it.
func bodyStatus(err error) int {
	if errors.Is(err, ErrBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// parseBody decodes an uploaded body: a binary snapshot when it starts
// with the snapshot magic, N-Triples otherwise. A snapshot is checksummed
// once — snapshot.Open verifies every section CRC and tells a graph from
// an archive — and its graph or archive is decoded from the verified
// bytes. An archive snapshot is accepted only where archiveOK; the result
// then holds the archive instead of a graph.
func parseBody(data []byte, name string, archiveOK bool) (*rdfalign.Graph, *rdfalign.Archive, error) {
	if !detectSnapshot(data) {
		g, err := rdfalign.ParseNTriples(bytes.NewReader(data), name)
		return g, nil, err
	}
	h, err := snapshot.Open(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, nil, err
	}
	if h.Info().Kind != "archive" {
		g, err := h.Graph()
		return g, nil, err
	}
	if !archiveOK {
		return nil, nil, errors.New("body is an archive snapshot; a graph snapshot or N-Triples is required here")
	}
	arch, err := h.Archive()
	return nil, arch, err
}

// handlePutArchive synchronously loads a request body — archive snapshot,
// graph snapshot or N-Triples — as the named archive, replacing any
// previous entry atomically. The alignment of the newest pair runs
// through the alignment pool under the request's context.
func (s *Server) handlePutArchive(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, err := s.readBody(w, r)
	if err != nil {
		writeError(w, bodyStatus(err), err.Error())
		return
	}
	g, arch, err := parseBody(data, name, true)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if arch == nil {
		if arch, err = s.base.BuildArchive(r.Context(), []*rdfalign.Graph{g}); err != nil {
			writeError(w, statusOf(err), err.Error())
			return
		}
	}
	if err := s.budget.AcquireAlign(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer s.budget.ReleaseAlign()
	if err := s.reg.Create(r.Context(), name, arch, true); err != nil {
		writeError(w, statusOf(err), err.Error())
		return
	}
	s.logf("archive %q loaded via PUT: %d versions", name, arch.Versions())
	h, _ := s.reg.Head(name)
	writeJSON(w, http.StatusCreated, s.summaryOf(name, h))
}

// handlePostVersion accepts a new version (N-Triples or graph snapshot)
// and aligns it asynchronously: the response is 202 with a job ID, and
// the new head is published when the job completes.
func (s *Server) handlePostVersion(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.reg.Head(name); err != nil {
		writeError(w, statusOf(err), err.Error())
		return
	}
	data, err := s.readBody(w, r)
	if err != nil {
		writeError(w, bodyStatus(err), err.Error())
		return
	}
	g, _, err := parseBody(data, fmt.Sprintf("%s-upload", name), false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := s.jobs.New(name, "version", cancel)
	go s.runJob(ctx, job, func(jctx context.Context) (*head, error) {
		return s.reg.AppendGraph(jctx, name, g, job.observe)
	})
	writeJSON(w, http.StatusAccepted, job.Info())
}

// handlePostDelta accepts an edit script against the newest version and
// applies it asynchronously through the alignment session (ApplyDelta).
// The head is captured here, at submission: if the archive advances
// before the job runs, the job fails with 409 rather than silently
// applying the script to a different base version.
func (s *Server) handlePostDelta(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	captured, err := s.reg.Head(name)
	if err != nil {
		writeError(w, statusOf(err), err.Error())
		return
	}
	data, err := s.readBody(w, r)
	if err != nil {
		writeError(w, bodyStatus(err), err.Error())
		return
	}
	script, err := rdfalign.ParseEditScript(bytes.NewReader(data))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := s.jobs.New(name, "delta", cancel)
	go s.runJob(ctx, job, func(jctx context.Context) (*head, error) {
		return s.reg.AppendDelta(jctx, name, captured, script, job.observe)
	})
	writeJSON(w, http.StatusAccepted, job.Info())
}

// runJob drives one asynchronous job: wait for an alignment slot, run
// the append, publish the terminal state.
func (s *Server) runJob(ctx context.Context, job *Job, run func(context.Context) (*head, error)) {
	if err := s.budget.AcquireAlign(ctx); err != nil {
		job.fail(err, http.StatusServiceUnavailable)
		return
	}
	defer s.budget.ReleaseAlign()
	job.setRunning()
	h, err := s.runRecovered(ctx, job, run)
	if err != nil {
		s.logf("job %s (%s on %q) failed: %v", job.ID(), job.kind, job.archive, err)
		job.fail(err, statusOf(err))
		return
	}
	s.logf("job %s (%s on %q) done: now %d versions", job.ID(), job.kind, job.archive, h.version)
	job.finish(h.version)
}

// runRecovered calls run, turning a panic into an error (HTTP 500 through
// statusOf) so that one broken job fails alone instead of taking down the
// process and every resident archive with it. The stack is logged with the
// job ID. The registry publishes a new head only after run succeeds, so a
// job that panics leaves its archive as it was.
func (s *Server) runRecovered(ctx context.Context, job *Job, run func(context.Context) (*head, error)) (h *head, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("job %s (%s on %q) panicked: %v\n%s", job.ID(), job.kind, job.archive, p, debug.Stack())
			err = fmt.Errorf("job panicked: %v", p)
		}
	}()
	return run(ctx)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	info := j.Info()
	status := http.StatusOK
	if info.State == JobFailed && info.Status != 0 {
		// Surface the job's failure status so pollers see e.g. the 409 of
		// a lost delta race without parsing the error text.
		status = info.Status
	}
	writeJSON(w, status, info)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Info())
}
