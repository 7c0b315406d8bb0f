package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rdfalign"
)

// TestJobFailContextClassification is the regression test for the wrapped
// context-error bug: the fixpoints wrap ctx.Err() (fmt.Errorf %w), so the
// terminal-state classification must unwrap with errors.Is. A wrapped
// cancellation is canceled, a wrapped expired deadline is timeout, anything
// else is failed.
func TestJobFailContextClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want JobState
	}{
		{"bare-cancel", context.Canceled, JobCanceled},
		{"wrapped-cancel", fmt.Errorf("refine: %w", context.Canceled), JobCanceled},
		{"deep-wrapped-cancel", fmt.Errorf("align: %w", fmt.Errorf("round 3: %w", context.Canceled)), JobCanceled},
		{"bare-deadline", context.DeadlineExceeded, JobTimeout},
		{"wrapped-deadline", fmt.Errorf("refine: %w", context.DeadlineExceeded), JobTimeout},
		{"plain-error", errors.New("boom"), JobFailed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			js := NewJobs(0)
			j := js.New("a", "version", func() {})
			j.fail(tc.err, 500)
			if got := j.Info().State; got != tc.want {
				t.Errorf("fail(%v) → state %q, want %q", tc.err, got, tc.want)
			}
			select {
			case <-j.Done():
			default:
				t.Error("terminal job's Done channel still open")
			}
		})
	}
}

// TestJobsEvictionAndOrdering is the table-driven retention test: terminal
// jobs beyond the per-archive bound are evicted oldest-first, in-flight
// jobs are never evicted, archives do not evict each other's history, and
// List keeps submission order across evictions.
func TestJobsEvictionAndOrdering(t *testing.T) {
	type step struct {
		archive string
		finish  bool // finish the job; otherwise leave it in flight
	}
	cases := []struct {
		name    string
		history int
		steps   []step
		want    []string // expected List IDs in order (job-1, job-2, ...)
	}{
		{
			name:    "oldest terminal evicted",
			history: 1,
			steps:   []step{{"a", true}, {"a", true}, {"a", true}},
			want:    []string{"job-3"},
		},
		{
			name:    "in-flight never evicted",
			history: 1,
			steps:   []step{{"a", false}, {"a", true}, {"a", true}},
			want:    []string{"job-1", "job-3"},
		},
		{
			name:    "archives evict independently",
			history: 1,
			steps:   []step{{"a", true}, {"b", true}, {"a", true}},
			want:    []string{"job-2", "job-3"},
		},
		{
			name:    "under the bound nothing goes",
			history: 2,
			steps:   []step{{"a", true}, {"a", true}},
			want:    []string{"job-1", "job-2"},
		},
		{
			name:    "order survives interleaved eviction",
			history: 2,
			steps:   []step{{"a", true}, {"b", true}, {"a", true}, {"a", true}, {"b", false}},
			want:    []string{"job-2", "job-3", "job-4", "job-5"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			js := NewJobs(tc.history)
			for _, st := range tc.steps {
				j := js.New(st.archive, "version", func() {})
				if st.finish {
					j.finish(1)
				}
			}
			infos := js.List()
			var got []string
			for _, info := range infos {
				got = append(got, info.ID)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("List = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("List = %v, want %v", got, tc.want)
				}
			}
			for _, id := range tc.want {
				if js.Get(id) == nil {
					t.Errorf("surviving job %s not retrievable", id)
				}
			}
		})
	}
}

// TestJobInfoConcurrentObserve hammers one job with concurrent progress
// events while snapshotting Info: every snapshot's progress must be one
// whole event (Round == Total == Dirty by construction), never a torn mix.
// Run under -race this also proves observe/Info need no external locking.
func TestJobInfoConcurrentObserve(t *testing.T) {
	js := NewJobs(0)
	j := js.New("a", "version", func() {})
	const writers, events = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				v := w*events + i
				j.observe(rdfalign.Progress{Stage: "refine", Round: v, Total: v, Dirty: v})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writers*events; i++ {
			info := j.Info()
			if p := info.Progress; p != nil && (p.Round != p.Total || p.Round != p.Dirty) {
				t.Errorf("torn progress snapshot: %+v", *p)
				return
			}
		}
	}()
	wg.Wait()
	<-done
}

// TestServerJobHistoryHTTP drives eviction end to end: with JobHistory 1,
// the older of two terminal jobs disappears from GET /jobs/{id} (404) while
// the newest stays pollable.
func TestServerJobHistoryHTTP(t *testing.T) {
	s := newTestServer(t, Config{JobHistory: 1})
	var sum archiveSummary
	if w := do(t, s, "PUT", "/archives/h", triplesV0, &sum); w.Code != 201 {
		t.Fatalf("PUT: %d", w.Code)
	}
	var j1, j2 JobInfo
	do(t, s, "POST", "/archives/h/versions", triplesV1, &j1)
	if info := waitJob(t, s, j1.ID); info.State != JobDone {
		t.Fatalf("first job: %+v", info)
	}
	// An inapplicable delta fails fast — the second terminal job.
	do(t, s, "POST", "/archives/h/deltas", "- <http://x/none> <http://x/p> \"x\" .\n", &j2)
	if info := waitJob(t, s, j2.ID); info.State != JobFailed {
		t.Fatalf("second job: %+v", info)
	}
	if w := do(t, s, "GET", "/jobs/"+j1.ID, "", nil); w.Code != 404 {
		t.Fatalf("evicted job GET: %d, want 404", w.Code)
	}
	if w := do(t, s, "GET", "/jobs/"+j2.ID, "", nil); w.Code == 404 {
		t.Fatalf("newest terminal job evicted")
	}
	var jobs struct {
		Jobs []JobInfo `json:"jobs"`
	}
	do(t, s, "GET", "/jobs", "", &jobs)
	if len(jobs.Jobs) != 1 || jobs.Jobs[0].ID != j2.ID {
		t.Fatalf("job list after eviction: %+v", jobs.Jobs)
	}
}

// TestServerDepthQuery exercises the ?depth=k parameter of the relation
// endpoints: bounded queries answer with the depth echoed, are consistent
// with the exact alignment on a stable pair, and malformed or negative
// depths are a 400 naming the accepted range.
func TestServerDepthQuery(t *testing.T) {
	s := newTestServer(t, Config{})
	var sum archiveSummary
	if w := do(t, s, "PUT", "/archives/d", triplesV0, &sum); w.Code != 201 {
		t.Fatalf("PUT: %d", w.Code)
	}
	var job JobInfo
	do(t, s, "POST", "/archives/d/versions", triplesV1, &job)
	if info := waitJob(t, s, job.ID); info.State != JobDone {
		t.Fatalf("version job: %+v", info)
	}

	var al struct {
		Aligned bool `json:"aligned"`
		Depth   int  `json:"depth"`
	}
	for _, depth := range []int{1, 2, 0} {
		path := fmt.Sprintf("/archives/d/aligned?source=http://x/a&target=http://x/a&depth=%d", depth)
		if w := do(t, s, "GET", path, "", &al); w.Code != 200 {
			t.Fatalf("aligned depth=%d: %d %s", depth, w.Code, w.Body)
		}
		if !al.Aligned || al.Depth != depth {
			t.Fatalf("aligned depth=%d: %+v", depth, al)
		}
	}
	// The second depth=1 query hits the head's per-k cache (same answer).
	if w := do(t, s, "GET", "/archives/d/aligned?source=http://x/a&target=http://x/a&depth=1", "", &al); w.Code != 200 || !al.Aligned {
		t.Fatalf("cached depth query: %d %+v", w.Code, al)
	}

	var dist struct {
		Distance *float64 `json:"distance"`
		Depth    int      `json:"depth"`
	}
	do(t, s, "GET", "/archives/d/distance?source=http://x/a&target=http://x/a&depth=2", "", &dist)
	if dist.Distance == nil || *dist.Distance != 0 || dist.Depth != 2 {
		t.Fatalf("distance depth=2: %+v", dist)
	}
	var matches struct {
		Found bool `json:"found"`
		Depth int  `json:"depth"`
	}
	do(t, s, "GET", "/archives/d/matches?uri=http://x/b&depth=1", "", &matches)
	if !matches.Found || matches.Depth != 1 {
		t.Fatalf("matches depth=1: %+v", matches)
	}

	for _, bad := range []string{"-1", "abc", "1.5"} {
		w := do(t, s, "GET", "/archives/d/aligned?source=http://x/a&target=http://x/a&depth="+bad, "", nil)
		if w.Code != 400 {
			t.Fatalf("depth=%q: %d, want 400", bad, w.Code)
		}
		if !strings.Contains(w.Body.String(), "outside [0, ∞)") {
			t.Fatalf("depth=%q error %q does not name the accepted range", bad, w.Body.String())
		}
	}
}

// TestServerJobPanicFailsSoft is the fail-soft regression test: a job whose
// work panics becomes a failed job with status 500, its stack is logged
// under the job ID, the alignment slot is released, and the server keeps
// answering queries and running jobs.
func TestServerJobPanicFailsSoft(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	s := newTestServer(t, Config{Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	var sum archiveSummary
	if w := do(t, s, "PUT", "/archives/p", triplesV0, &sum); w.Code != 201 {
		t.Fatalf("PUT: %d", w.Code)
	}
	var job JobInfo
	do(t, s, "POST", "/archives/p/versions", triplesV1, &job)
	if info := waitJob(t, s, job.ID); info.State != JobDone {
		t.Fatalf("version job: %+v", info)
	}

	bad := s.jobs.New("p", "version", func() {})
	s.runJob(context.Background(), bad, func(context.Context) (*head, error) {
		var m map[string]int
		m["boom"]++ // nil-map write: a runtime panic inside the job
		return nil, nil
	})
	info := bad.Info()
	if info.State != JobFailed || info.Status != 500 || !strings.Contains(info.Error, "panicked") {
		t.Fatalf("panicking job: %+v", info)
	}
	if w := do(t, s, "GET", "/jobs/"+bad.ID(), "", nil); w.Code != 500 {
		t.Fatalf("GET panicked job: %d, want 500", w.Code)
	}
	mu.Lock()
	logged := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(logged, bad.ID()+" (version on \"p\") panicked") || !strings.Contains(logged, "goroutine") {
		t.Fatalf("panic not logged with job ID and stack:\n%s", logged)
	}

	var al struct {
		Aligned bool `json:"aligned"`
	}
	if w := do(t, s, "GET", "/archives/p/aligned?source=http://x/a&target=http://x/a", "", &al); w.Code != 200 || !al.Aligned {
		t.Fatalf("query after panic: %d %+v", w.Code, al)
	}
	do(t, s, "POST", "/archives/p/deltas", deltaV2, &job)
	if info := waitJob(t, s, job.ID); info.State != JobDone || info.Version != 3 {
		t.Fatalf("delta job after panic: %+v", info)
	}
}
