package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdfalign"
	"rdfalign/internal/rdf"
)

const (
	triplesV0 = `<http://x/a> <http://x/p> "alpha" .
<http://x/b> <http://x/p> "beta" .
<http://x/a> <http://x/q> <http://x/b> .
`
	triplesV1 = `<http://x/a> <http://x/p> "alpha" .
<http://x/b> <http://x/p> "beta" .
<http://x/a> <http://x/q> <http://x/b> .
<http://x/c> <http://x/p> "gamma" .
`
	deltaV2 = `+ <http://x/d> <http://x/p> "delta" .
`
)

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do runs one in-process request and decodes a JSON body.
func do(t testing.TB, s *Server, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w
}

// waitJob polls a job ID to a terminal state and returns its final info.
func waitJob(t testing.TB, s *Server, id string) JobInfo {
	t.Helper()
	j := s.jobs.Get(id)
	if j == nil {
		t.Fatalf("no job %q", id)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	return j.Info()
}

func TestServerLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})

	// Empty server.
	var health map[string]any
	if w := do(t, s, "GET", "/healthz", "", &health); w.Code != 200 {
		t.Fatalf("healthz: %d", w.Code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz body: %v", health)
	}
	if w := do(t, s, "GET", "/archives/nope", "", nil); w.Code != 404 {
		t.Fatalf("missing archive: got %d, want 404", w.Code)
	}

	// PUT an N-Triples body: one-version archive, no aligned pair yet.
	var sum archiveSummary
	if w := do(t, s, "PUT", "/archives/test", triplesV0, &sum); w.Code != 201 {
		t.Fatalf("PUT: %d %s", w.Code, w.Body)
	}
	if sum.Versions != 1 || sum.Aligned {
		t.Fatalf("after PUT: %+v", sum)
	}
	if w := do(t, s, "GET", "/archives/test/aligned?source=http://x/a&target=http://x/a", "", nil); w.Code != 409 {
		t.Fatalf("aligned on single version: got %d, want 409", w.Code)
	}

	// POST a second version asynchronously.
	var job JobInfo
	if w := do(t, s, "POST", "/archives/test/versions", triplesV1, &job); w.Code != 202 {
		t.Fatalf("POST version: %d %s", w.Code, w.Body)
	}
	if info := waitJob(t, s, job.ID); info.State != JobDone || info.Version != 2 {
		t.Fatalf("version job: %+v", info)
	}
	do(t, s, "GET", "/archives/test", "", &sum)
	if sum.Versions != 2 || !sum.Aligned || sum.AnchorVersion != 0 || sum.TargetVersion != 1 {
		t.Fatalf("after version job: %+v", sum)
	}

	// Relation queries over the aligned pair.
	var al struct {
		SourceFound bool `json:"source_found"`
		TargetFound bool `json:"target_found"`
		Aligned     bool `json:"aligned"`
	}
	do(t, s, "GET", "/archives/test/aligned?source=http://x/a&target=http://x/a", "", &al)
	if !al.SourceFound || !al.TargetFound || !al.Aligned {
		t.Fatalf("aligned: %+v", al)
	}
	var dist struct {
		Distance *float64 `json:"distance"`
	}
	do(t, s, "GET", "/archives/test/distance?source=http://x/a&target=http://x/a", "", &dist)
	if dist.Distance == nil || *dist.Distance != 0 {
		t.Fatalf("distance: %+v", dist)
	}
	var matches struct {
		Found   bool   `json:"found"`
		Matches []Term `json:"matches"`
	}
	do(t, s, "GET", "/archives/test/matches?uri=http://x/b", "", &matches)
	if !matches.Found || len(matches.Matches) == 0 {
		t.Fatalf("matches: %+v", matches)
	}
	found := false
	for _, m := range matches.Matches {
		if m.Kind == "uri" && m.Value == "http://x/b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("matches of b missing b: %+v", matches.Matches)
	}
	do(t, s, "GET", "/archives/test/matches?uri=http://x/unknown", "", &matches)
	if matches.Found {
		t.Fatalf("unknown uri reported found")
	}

	// Resolve across versions through entity chains.
	var res struct {
		Found   bool  `json:"found"`
		Present bool  `json:"present"`
		Label   *Term `json:"label"`
	}
	do(t, s, "GET", "/archives/test/resolve?uri=http://x/a&from=0&to=1", "", &res)
	if !res.Found || !res.Present || res.Label == nil || res.Label.Value != "http://x/a" {
		t.Fatalf("resolve: %+v", res)
	}

	// Stats and version listings.
	var stats rdfalign.ArchiveStats
	do(t, s, "GET", "/archives/test/stats", "", &stats)
	if stats.Versions != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	var vers struct {
		Versions    []VersionInfo  `json:"versions"`
		AlignedPair map[string]int `json:"aligned_pair"`
	}
	do(t, s, "GET", "/archives/test/versions", "", &vers)
	if len(vers.Versions) != 2 || vers.Versions[1].Triples != 4 {
		t.Fatalf("versions: %+v", vers)
	}
	if vers.AlignedPair["source"] != 0 || vers.AlignedPair["target"] != 1 {
		t.Fatalf("aligned_pair: %+v", vers.AlignedPair)
	}
	w := do(t, s, "GET", "/archives/test/versions/0", "", nil)
	if w.Code != 200 || !strings.Contains(w.Body.String(), "<http://x/a>") {
		t.Fatalf("download v0: %d %q", w.Code, w.Body.String())
	}
	if g, err := rdfalign.ParseNTriplesString(w.Body.String(), "v0"); err != nil || g.NumTriples() != 3 {
		t.Fatalf("download v0 reparse: %v", err)
	}

	// Delta application advances the session target; the anchor stays.
	if w := do(t, s, "POST", "/archives/test/deltas", deltaV2, &job); w.Code != 202 {
		t.Fatalf("POST delta: %d %s", w.Code, w.Body)
	}
	if info := waitJob(t, s, job.ID); info.State != JobDone || info.Version != 3 {
		t.Fatalf("delta job: %+v", info)
	}
	do(t, s, "GET", "/archives/test", "", &sum)
	if sum.Versions != 3 || sum.AnchorVersion != 0 || sum.TargetVersion != 2 {
		t.Fatalf("after delta: %+v", sum)
	}
	do(t, s, "GET", "/archives/test/resolve?uri=http://x/d&from=2&to=2", "", &res)
	if !res.Found {
		t.Fatalf("inserted entity not resolvable: %+v", res)
	}

	// Jobs listing and cancellation of unknown jobs.
	var jobs struct {
		Jobs []JobInfo `json:"jobs"`
	}
	do(t, s, "GET", "/jobs", "", &jobs)
	if len(jobs.Jobs) != 2 {
		t.Fatalf("jobs: %+v", jobs)
	}
	if w := do(t, s, "DELETE", "/jobs/job-99", "", nil); w.Code != 404 {
		t.Fatalf("cancel unknown job: %d", w.Code)
	}

	// A malformed delta is a synchronous 400.
	if w := do(t, s, "POST", "/archives/test/deltas", "not a script", nil); w.Code != 400 {
		t.Fatalf("bad delta: %d", w.Code)
	}
	// A delta deleting a missing triple fails its job with 400.
	do(t, s, "POST", "/archives/test/deltas", "- <http://x/none> <http://x/p> \"x\" .\n", &job)
	if info := waitJob(t, s, job.ID); info.State != JobFailed || info.Status != 400 {
		t.Fatalf("inapplicable delta: %+v", info)
	}
	if w := do(t, s, "GET", "/jobs/"+job.ID, "", nil); w.Code != 400 {
		t.Fatalf("failed job status: %d", w.Code)
	}
}

// TestServerRejectsMalformedVersionNumbers checks that a version number
// with trailing characters is a bad request, not a prefix read as a
// number.
func TestServerRejectsMalformedVersionNumbers(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := do(t, s, "PUT", "/archives/test", triplesV0, nil); w.Code != 201 {
		t.Fatalf("PUT: %d %s", w.Code, w.Body)
	}
	var job JobInfo
	if w := do(t, s, "POST", "/archives/test/versions", triplesV1, &job); w.Code != 202 {
		t.Fatalf("POST version: %d %s", w.Code, w.Body)
	}
	if info := waitJob(t, s, job.ID); info.State != JobDone {
		t.Fatalf("version job: %+v", info)
	}
	for _, path := range []string{
		"/archives/test/versions/1abc",
		"/archives/test/versions/1.5",
		"/archives/test/versions/0x10",
		"/archives/test/resolve?uri=http://x/a&from=1.5",
		"/archives/test/resolve?uri=http://x/a&to=2x",
	} {
		if w := do(t, s, "GET", path, "", nil); w.Code != http.StatusBadRequest {
			t.Errorf("GET %s: got %d, want 400", path, w.Code)
		}
	}
	for _, path := range []string{"/archives/test/versions/1", "/archives/test/resolve?uri=http://x/a&from=0&to=1"} {
		if w := do(t, s, "GET", path, "", nil); w.Code != http.StatusOK {
			t.Errorf("GET %s: got %d, want 200", path, w.Code)
		}
	}
}

func TestServerSnapshotLoading(t *testing.T) {
	dir := t.TempDir()
	g0 := mustParse(t, triplesV0, "v0")
	g1 := mustParse(t, triplesV1, "v1")
	al, err := rdfalign.NewAligner()
	if err != nil {
		t.Fatal(err)
	}
	arch, err := al.BuildArchive(context.Background(), []*rdfalign.Graph{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	archPath := filepath.Join(dir, "arch.snap")
	if err := rdfalign.WriteArchiveSnapshotFile(archPath, arch); err != nil {
		t.Fatal(err)
	}
	graphPath := filepath.Join(dir, "graph.snap")
	if err := rdfalign.WriteGraphSnapshotMappedFile(graphPath, g0); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{})
	if err := s.LoadSnapshotFile(context.Background(), "arch", archPath); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadSnapshotFile(context.Background(), "graph", graphPath); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadSnapshotFile(context.Background(), "arch", archPath); err == nil {
		t.Fatal("duplicate load should fail")
	}

	// The archive snapshot is resident with its newest pair aligned, and
	// appendable: a delta applies on top of the rebuilt tail.
	var sum archiveSummary
	do(t, s, "GET", "/archives/arch", "", &sum)
	if sum.Versions != 2 || !sum.Aligned {
		t.Fatalf("loaded archive: %+v", sum)
	}
	var job JobInfo
	if w := do(t, s, "POST", "/archives/arch/deltas", deltaV2, &job); w.Code != 202 {
		t.Fatalf("POST delta: %d %s", w.Code, w.Body)
	}
	if info := waitJob(t, s, job.ID); info.State != JobDone || info.Version != 3 {
		t.Fatalf("delta on loaded archive: %+v", info)
	}

	// The graph snapshot became a single-version archive.
	do(t, s, "GET", "/archives/graph", "", &sum)
	if sum.Versions != 1 || sum.Aligned {
		t.Fatalf("loaded graph: %+v", sum)
	}

	var names struct {
		Archives []archiveSummary `json:"archives"`
	}
	do(t, s, "GET", "/archives", "", &names)
	if len(names.Archives) != 2 {
		t.Fatalf("archive list: %+v", names)
	}
}

func TestServerDeltaConflict(t *testing.T) {
	s := newTestServer(t, Config{AlignJobs: 1})
	var sum archiveSummary
	if w := do(t, s, "PUT", "/archives/c", triplesV0, &sum); w.Code != 201 {
		t.Fatalf("PUT: %d", w.Code)
	}
	var job JobInfo
	do(t, s, "POST", "/archives/c/versions", triplesV1, &job)
	if info := waitJob(t, s, job.ID); info.State != JobDone {
		t.Fatalf("setup version: %+v", info)
	}

	// Hold the only alignment slot so both deltas are captured against
	// the same head before either runs.
	if err := s.budget.AcquireAlign(context.Background()); err != nil {
		t.Fatal(err)
	}
	var j1, j2 JobInfo
	do(t, s, "POST", "/archives/c/deltas", "+ <http://x/e> <http://x/p> \"one\" .\n", &j1)
	do(t, s, "POST", "/archives/c/deltas", "+ <http://x/f> <http://x/p> \"two\" .\n", &j2)
	s.budget.ReleaseAlign()

	// The queued jobs acquire the freed slot in either order; exactly one
	// must win and the loser must surface the stale session as a 409.
	i1, i2 := waitJob(t, s, j1.ID), waitJob(t, s, j2.ID)
	won, lost := i1, i2
	if i2.State == JobDone {
		won, lost = i2, i1
	}
	if won.State != JobDone || won.Version != 3 {
		t.Fatalf("winning delta: %+v", won)
	}
	if lost.State != JobFailed || lost.Status != 409 {
		t.Fatalf("losing delta should fail with 409: %+v", lost)
	}
	if w := do(t, s, "GET", "/jobs/"+lost.ID, "", nil); w.Code != 409 {
		t.Fatalf("lost job surfaced as %d, want 409", w.Code)
	}
	if !strings.Contains(lost.Error, "conflict") {
		t.Fatalf("conflict error text: %q", lost.Error)
	}
}

// TestServerDeltaOnSingleVersion: a delta against a PUT-only archive has no
// aligned pair to maintain, so it is published like an uploaded version:
// the archive reaches version 2 with an aligned pair, and every query
// answers exactly as on an archive that received the edited graph by POST.
func TestServerDeltaOnSingleVersion(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, name := range []string{"bydelta", "byversion"} {
		if w := do(t, s, "PUT", "/archives/"+name, triplesV0, nil); w.Code != 201 {
			t.Fatalf("PUT %s: %d %s", name, w.Code, w.Body)
		}
	}
	var job JobInfo
	// triplesV0 plus this insertion is triplesV1.
	if w := do(t, s, "POST", "/archives/bydelta/deltas", "+ <http://x/c> <http://x/p> \"gamma\" .\n", &job); w.Code != 202 {
		t.Fatalf("POST delta: %d %s", w.Code, w.Body)
	}
	if info := waitJob(t, s, job.ID); info.State != JobDone || info.Version != 2 {
		t.Fatalf("delta job: %+v", info)
	}
	do(t, s, "POST", "/archives/byversion/versions", triplesV1, &job)
	if info := waitJob(t, s, job.ID); info.State != JobDone || info.Version != 2 {
		t.Fatalf("version job: %+v", info)
	}

	var got, want archiveSummary
	do(t, s, "GET", "/archives/bydelta", "", &got)
	do(t, s, "GET", "/archives/byversion", "", &want)
	if got.Versions != 2 || !got.Aligned {
		t.Fatalf("after delta: %+v", got)
	}
	// The archive names and the latest graph's name differ by construction.
	got.Name, want.Name, got.Latest.Name, want.Latest.Name = "", "", "", ""
	if got != want {
		t.Fatalf("delta summary %+v, version summary %+v", got, want)
	}
	for _, q := range []string{
		"/stats",
		"/versions",
		"/versions/1",
		"/matches?uri=http://x/c",
		"/aligned?source=http://x/a&target=http://x/a",
		"/distance?source=http://x/b&target=http://x/b",
		"/resolve?uri=http://x/a&from=0&to=1",
	} {
		gw := do(t, s, "GET", "/archives/bydelta"+q, "", nil)
		ww := do(t, s, "GET", "/archives/byversion"+q, "", nil)
		if gw.Code != 200 || gw.Code != ww.Code || gw.Body.String() != ww.Body.String() {
			t.Errorf("%s: delta archive %d %q, version archive %d %q", q, gw.Code, gw.Body, ww.Code, ww.Body)
		}
	}
}

// TestServerDeltaOnSingleVersionConflict: a delta captured against a
// PUT-only archive fails with 409 when another version lands before it
// runs, and the archive keeps that version.
func TestServerDeltaOnSingleVersionConflict(t *testing.T) {
	s := newTestServer(t, Config{AlignJobs: 1})
	if w := do(t, s, "PUT", "/archives/c", triplesV0, nil); w.Code != 201 {
		t.Fatalf("PUT: %d", w.Code)
	}
	// Hold the only alignment slot so the delta is captured against the
	// single-version head and waits; publish a version past it meanwhile.
	if err := s.budget.AcquireAlign(context.Background()); err != nil {
		t.Fatal(err)
	}
	var job JobInfo
	do(t, s, "POST", "/archives/c/deltas", "+ <http://x/e> <http://x/p> \"one\" .\n", &job)
	if _, err := s.Registry().AppendGraph(context.Background(), "c", mustParse(t, triplesV1, "v1"), nil); err != nil {
		s.budget.ReleaseAlign()
		t.Fatal(err)
	}
	s.budget.ReleaseAlign()

	info := waitJob(t, s, job.ID)
	if info.State != JobFailed || info.Status != 409 || !strings.Contains(info.Error, "conflict") {
		t.Fatalf("delta on a superseded single-version head should fail with 409: %+v", info)
	}
	var sum archiveSummary
	do(t, s, "GET", "/archives/c", "", &sum)
	if sum.Versions != 2 || sum.Latest.Triples != 4 {
		t.Fatalf("archive after the lost delta: %+v", sum)
	}
}

func TestServerJobCancellation(t *testing.T) {
	s := newTestServer(t, Config{AlignJobs: 1})
	var sum archiveSummary
	if w := do(t, s, "PUT", "/archives/c", triplesV0, &sum); w.Code != 201 {
		t.Fatalf("PUT: %d", w.Code)
	}
	// Hold the slot so the job stays queued, then cancel it.
	if err := s.budget.AcquireAlign(context.Background()); err != nil {
		t.Fatal(err)
	}
	var job JobInfo
	do(t, s, "POST", "/archives/c/versions", triplesV1, &job)
	if w := do(t, s, "DELETE", "/jobs/"+job.ID, "", nil); w.Code != 200 {
		t.Fatalf("cancel: %d", w.Code)
	}
	info := waitJob(t, s, job.ID)
	s.budget.ReleaseAlign()
	if info.State != JobCanceled {
		t.Fatalf("canceled job: %+v", info)
	}
	var sum2 archiveSummary
	do(t, s, "GET", "/archives/c", "", &sum2)
	if sum2.Versions != 1 {
		t.Fatalf("canceled job mutated the archive: %+v", sum2)
	}
}

func mustParse(t testing.TB, doc, name string) *rdfalign.Graph {
	t.Helper()
	g, err := rdfalign.ParseNTriplesString(doc, name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustStream(t testing.TB, cfg rdfalign.StreamConfig) *rdfalign.Graph {
	t.Helper()
	var sb strings.Builder
	if _, err := rdfalign.StreamNTriples(&sb, cfg); err != nil {
		t.Fatal(err)
	}
	return mustParse(t, sb.String(), fmt.Sprintf("stream-v%d", cfg.Version))
}

// TestServerUploadLimit: bodies over MaxUploadBytes are rejected with 413
// and an error naming the limit, on every body-accepting endpoint; bodies
// under the limit are unaffected.
func TestServerUploadLimit(t *testing.T) {
	s := newTestServer(t, Config{MaxUploadBytes: int64(len(triplesV0)) + 4})
	big := triplesV0 + triplesV1 + strings.Repeat("# pad\n", 16)
	// Create the archive first: the version/delta endpoints resolve the
	// archive before touching the body.
	if w := do(t, s, "PUT", "/archives/big", triplesV0, nil); w.Code/100 != 2 {
		t.Fatalf("setup PUT: status %d (body %q)", w.Code, w.Body.String())
	}
	for _, ep := range []struct{ method, path string }{
		{"PUT", "/archives/big"},
		{"POST", "/archives/big/versions"},
		{"POST", "/archives/big/deltas"},
	} {
		var body map[string]string
		w := do(t, s, ep.method, ep.path, big, &body)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s with oversized body: status %d, want 413 (body %q)", ep.method, ep.path, w.Code, w.Body.String())
		}
		if !strings.Contains(body["error"], "upload limit") || !strings.Contains(body["error"], fmt.Sprint(len(triplesV0)+4)) {
			t.Fatalf("%s %s: error %q does not name the upload limit", ep.method, ep.path, body["error"])
		}
	}
	// An in-limit body still works: the oversized attempts left no state.
	if w := do(t, s, "PUT", "/archives/big", triplesV0, nil); w.Code/100 != 2 {
		t.Fatalf("in-limit PUT: status %d (body %q)", w.Code, w.Body.String())
	}
}

// TestHeadURIIndexes: a published head shares its URI indexes with the
// head before it wherever the graph is the same one — a delta keeps the
// anchor, a new version re-anchors at the previous latest graph — and the
// append jobs build the latest graph's index before they publish.
func TestHeadURIIndexes(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := do(t, s, "PUT", "/archives/c", triplesV0, nil); w.Code != 201 {
		t.Fatalf("PUT: %d %s", w.Code, w.Body)
	}
	e, err := s.Registry().entry("c")
	if err != nil {
		t.Fatal(err)
	}
	var job JobInfo
	do(t, s, "POST", "/archives/c/versions", triplesV1, &job)
	if info := waitJob(t, s, job.ID); info.State != JobDone {
		t.Fatalf("version job: %+v", info)
	}
	h1 := e.head.Load()
	do(t, s, "POST", "/archives/c/deltas", deltaV2, &job)
	if info := waitJob(t, s, job.ID); info.State != JobDone {
		t.Fatalf("delta job: %+v", info)
	}
	h2 := e.head.Load()
	if h2.anchor != h1.anchor || h2.anchorURI != h1.anchorURI {
		t.Error("a delta's head does not share the anchor's URI index")
	}
	if h2.latestURI.m == nil {
		t.Error("the delta job published a head whose latest URI index is not built")
	}
	do(t, s, "POST", "/archives/c/versions", triplesV0, &job)
	if info := waitJob(t, s, job.ID); info.State != JobDone {
		t.Fatalf("second version job: %+v", info)
	}
	h3 := e.head.Load()
	if h3.anchor != h2.latest || h3.anchorURI != h2.latestURI {
		t.Error("a new version's head does not share the previous latest graph's URI index")
	}
	if h3.latestURI.m == nil {
		t.Error("the version job published a head whose latest URI index is not built")
	}
	if n, ok := h3.findAnchor("http://x/d"); !ok || h2.latest.Label(n).Value != "http://x/d" {
		t.Errorf("findAnchor(http://x/d) = %d, %v", n, ok)
	}
	if _, ok := h3.findLatest("http://x/d"); ok {
		t.Error("findLatest found a URI the latest graph lacks")
	}
}

// TestServerAppendsAlignOnce: an upload job and a delta on a single-version
// archive align their pair once — the session's alignment is what the
// archive records — so the job's sink sees the refinement fixpoints
// (round-1 events) of one Align. A Trivial session's pair cannot be
// recorded and the tail pair is aligned again with Hybrid. Either way the
// archive equals BuildArchive over the same history.
func TestServerAppendsAlignOnce(t *testing.T) {
	efo, err := rdfalign.GenerateEFO(rdfalign.EFOConfig{Versions: 2, Scale: 0.005, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g0, g1 := efo.Graphs[0], efo.Graphs[1]
	script, err := rdfalign.ParseEditScriptString("+ <http://x/s> <http://x/p> \"v\" .\n")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var fixpoints int
	count := func(p rdfalign.Progress) {
		if p.Stage == "refine" && p.Round == 1 {
			fixpoints++
		}
	}
	// aligns counts the fixpoints of one Align of (src, dst) under opts.
	aligns := func(src, dst *rdfalign.Graph, opts ...rdfalign.Option) int {
		al, err := rdfalign.NewAligner(append(opts, rdfalign.WithProgress(count))...)
		if err != nil {
			t.Fatal(err)
		}
		fixpoints = 0
		if _, err := al.Align(ctx, src, dst); err != nil {
			t.Fatal(err)
		}
		return fixpoints
	}
	for _, m := range []rdfalign.Method{rdfalign.Hybrid, rdfalign.Overlap, rdfalign.SigmaEdit, rdfalign.Trivial} {
		base, err := rdfalign.NewAligner(rdfalign.WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		r := NewRegistry(base)
		for _, name := range []string{"upload", "delta"} {
			arch, err := base.BuildArchive(ctx, []*rdfalign.Graph{g0})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Create(ctx, name, arch, false); err != nil {
				t.Fatal(err)
			}
		}
		g1Delta, err := rdfalign.ApplyEditScript(g0, script)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			run  func() (*head, error)
			next *rdfalign.Graph
		}{
			{"upload", func() (*head, error) { return r.AppendGraph(ctx, "upload", g1, count) }, g1},
			{"delta", func() (*head, error) {
				captured, err := r.Head("delta")
				if err != nil {
					return nil, err
				}
				return r.AppendDelta(ctx, "delta", captured, script, count)
			}, g1Delta},
		} {
			want := aligns(g0, tc.next, rdfalign.WithMethod(m))
			if m == rdfalign.Trivial {
				want += aligns(g0, tc.next, rdfalign.WithMethod(rdfalign.Hybrid))
			}
			if want == 0 {
				t.Fatalf("%v/%s: the pair runs no refinement fixpoint", m, tc.name)
			}
			fixpoints = 0
			h, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if fixpoints != want {
				t.Errorf("%v/%s: job ran %d refinement fixpoints, want %d", m, tc.name, fixpoints, want)
			}
			ref, err := base.BuildArchive(ctx, []*rdfalign.Graph{g0, h.latest})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(h.arch.Raw(), ref.Raw()) {
				t.Errorf("%v/%s: published archive differs from BuildArchive:\n got %s\nwant %s",
					m, tc.name, h.arch.GatherStats(), ref.GatherStats())
			}
		}
	}
}

// TestCreateTakenNameFailsFirst: Create refuses a taken name before it
// aligns the head pair, so a duplicate returns ErrExists even when the
// alignment could not run.
func TestCreateTakenNameFailsFirst(t *testing.T) {
	g0, err := rdfalign.ParseNTriplesString(triplesV0, "v0")
	if err != nil {
		t.Fatal(err)
	}
	g1, err := rdfalign.ParseNTriplesString(triplesV1, "v1")
	if err != nil {
		t.Fatal(err)
	}
	base, err := rdfalign.NewAligner(rdfalign.WithMethod(rdfalign.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	arch, err := base.BuildArchive(context.Background(), []*rdfalign.Graph{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(base)
	if err := r.Create(context.Background(), "a", arch, false); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Create(cancelled, "a", arch, false); !errors.Is(err, ErrExists) {
		t.Errorf("Create on a taken name = %v, want ErrExists", err)
	}
}

// TestTermOf: response terms follow the label kind, so an empty literal
// is a literal, not a blank.
func TestTermOf(t *testing.T) {
	for _, tc := range []struct {
		l    rdfalign.Label
		want Term
	}{
		{rdfalign.Label{Kind: rdf.URI, Value: "http://x/a"}, Term{Kind: "uri", Value: "http://x/a"}},
		{rdfalign.Label{Kind: rdf.Literal, Value: "alpha"}, Term{Kind: "literal", Value: "alpha"}},
		{rdfalign.Label{Kind: rdf.Literal, Value: ""}, Term{Kind: "literal"}},
		{rdfalign.Label{Kind: rdf.Blank, Value: "b1"}, Term{Kind: "blank"}},
	} {
		if got := termOf(tc.l); got != tc.want {
			t.Errorf("termOf(%+v) = %+v, want %+v", tc.l, got, tc.want)
		}
	}
}
