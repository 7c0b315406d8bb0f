package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rdfalign"
)

// The serve-mixed workload: reads beside writes on rdfalignd. An open loop
// sends queries at a fixed rate with uniform arrivals while one writer
// submits deltas, each after the previous delta job is done, through the
// job pool the queries' lazy per-head indexes compete with.

// Routes of the read mix and their shares.
var routes = []struct {
	name  string
	share float64
}{
	{"matches", 0.5},
	{"aligned", 0.3},
	{"resolve", 0.2},
}

// request is one query of the read mix.
type request struct {
	route int
	path  string
}

// term is a node label in a /matches answer.
type term struct {
	Kind  string `json:"kind"`
	Value string `json:"value"`
}

// gateQuery is a /matches question with the library's answer.
type gateQuery struct {
	uri  string
	want []term
}

// serveInputs are the generated inputs of serve-mixed.
type serveInputs struct {
	snapPath string
	fwd, bwd []byte // the edit script δ (v2→v3) and its inverse
	reads    []request
	gate     []gateQuery
}

func runServe(ctx context.Context, cfg *config) (*result, error) {
	dir, err := os.MkdirTemp("", "rdfbench-serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := prepareServe(ctx, cfg, dir)
	if err != nil {
		return nil, err
	}

	res := newResult()
	cal := newCalibrator()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()},
		Timeout:   10 * time.Second,
	}
	defer client.CloseIdleConnections()
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			client.CloseIdleConnections()
		}
		cal.measure()
		start := time.Now()
		if d, err = startDaemon(ctx, cfg.daemon, in.snapPath); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		// The first two deltas build the session's graph editor and
		// dependents index, one-time costs of a resident archive, as in
		// delta-maintain's set-up.
		for _, script := range [][]byte{in.fwd, in.bwd} {
			if _, err := runDeltaJob(ctx, client, d.base, script); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		res.setup = append(res.setup, time.Since(start).Seconds()*cal.scale())
	}
	res.header = append(res.header, cal.String())
	pid := strconv.Itoa(d.cmd.Process.Pid)
	if err := resetPeakRSS(pid); err != nil {
		res.header = append(res.header, "peak_rss_mb includes set-up: "+err.Error())
	}
	if cfg.trace {
		res.tracer = newTracer()
	}
	// The reference task keeps running every refInterval during the load,
	// taking a few percent of one processor from the client and the server.
	refs := []float64{cal.measure()}
	stopRefs, refsDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(refsDone)
		for {
			select {
			case <-stopRefs:
				return
			case <-time.After(refInterval):
				refs = append(refs, cal.measure())
			}
		}
	}()
	before := readRuntime()
	lr, err := runLoad(ctx, cfg, client, d.base, in, res.tracer)
	close(stopRefs)
	<-refsDone
	if err != nil {
		return nil, err
	}
	res.gcFrac, res.allocPerOp = readRuntime().since(before, len(lr.samples))
	ref := percentile(refs, 50)
	res.header = append(res.header, fmt.Sprintf("reference task %.2f ms over %d runs during the load (nominal %.0f ms)", ref, len(refs), refNominal))
	if res.rssMB, err = peakRSS(pid); err != nil {
		return nil, err
	}
	if err := checkServe(ctx, client, d.base, in.gate, lr); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	d = nil
	lr.summarise(cfg, res, ref)
	return res, nil
}

// prepareServe builds the archive of releases v1 and v2 of the churn corpus
// and writes it as a snapshot, generates the read mix over the anchor
// release's URIs, and computes the library's answers for the gate.
func prepareServe(ctx context.Context, cfg *config, dir string) (*serveInputs, error) {
	v1, v2, fwd, err := churnInputs(cfg.sizes.serveTriples, cfg.seed)
	if err != nil {
		return nil, err
	}
	g1, err := rdfalign.ParseNTriplesString(v1, "v1", rdfalign.WithParseWorkers(-1))
	if err != nil {
		return nil, err
	}
	g2, err := rdfalign.ParseNTriplesString(v2, "v2", rdfalign.WithParseWorkers(-1))
	if err != nil {
		return nil, err
	}
	// rdfalignd's default method.
	al, err := rdfalign.NewAligner(rdfalign.WithMethod(rdfalign.Hybrid))
	if err != nil {
		return nil, err
	}
	arch, err := al.BuildArchive(ctx, []*rdfalign.Graph{g1, g2})
	if err != nil {
		return nil, err
	}
	in := &serveInputs{
		snapPath: filepath.Join(dir, "bench.snap"),
		fwd:      []byte(fwd.Format()),
		bwd:      []byte(fwd.Inverse().Format()),
	}
	if err := rdfalign.WriteArchiveSnapshotFile(in.snapPath, arch); err != nil {
		return nil, err
	}

	var uris []string
	g1.Nodes(func(n rdfalign.NodeID) {
		if g1.IsURI(n) {
			uris = append(uris, g1.Label(n).Value)
		}
	})
	rng := rand.New(rand.NewSource(cfg.seed))
	n := int(float64(cfg.sizes.serveQPS) * cfg.seconds.Seconds())
	in.reads = make([]request, n)
	for i := range in.reads {
		u := url.QueryEscape(uris[rng.Intn(len(uris))])
		r := rng.Float64()
		switch {
		case r < routes[0].share:
			in.reads[i] = request{0, "/archives/bench/matches?uri=" + u}
		case r < routes[0].share+routes[1].share:
			in.reads[i] = request{1, "/archives/bench/aligned?source=" + u + "&target=" + u}
		default:
			// Without to= the server resolves into the newest version.
			in.reads[i] = request{2, "/archives/bench/resolve?uri=" + u + "&from=0"}
		}
	}

	a, err := al.Align(ctx, g1, g2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.sizes.serveGate; i++ {
		uri := uris[rng.Intn(len(uris))]
		src, _ := g1.FindURI(uri)
		q := gateQuery{uri: uri, want: []term{}}
		for _, m := range a.MatchesOf(src) {
			q.want = append(q.want, termOf(g2, m))
		}
		in.gate = append(in.gate, q)
	}
	return in, nil
}

// termOf renders a node label as rdfalignd's query responses do.
func termOf(g *rdfalign.Graph, n rdfalign.NodeID) term {
	l := g.Label(n)
	switch {
	case g.IsURI(n):
		return term{Kind: "uri", Value: l.Value}
	case l.Value != "":
		return term{Kind: "literal", Value: l.Value}
	default:
		return term{Kind: "blank"}
	}
}

// daemon is a running rdfalignd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    bytes.Buffer // the child's output; read only after exited
	exited chan struct{}
	err    error // Wait's result, set before exited is closed
}

// startDaemon starts rdfalignd serving the archive snapshot and waits until
// the archive is resident.
func startDaemon(ctx context.Context, bin, snap string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-archive", "bench="+snap)
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	// The child dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		if ready(probe, d.base) {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("rdfalignd exited: %v\n%s", d.err, d.log.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Since(start) > time.Minute {
			d.stop()
			return nil, errors.New("rdfalignd not ready after a minute")
		}
	}
}

// ready reports whether the server has the benchmark archive resident, its
// head pair aligned.
func ready(c *http.Client, base string) bool {
	resp, err := c.Get(base + "/archives/bench")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop terminates the server, waits for it to exit and reports an unclean
// exit.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
	}
	if d.err != nil {
		return fmt.Errorf("rdfalignd: %w\n%s", d.err, d.log.String())
	}
	return nil
}

// sample is one timed query of the read mix.
type sample struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

// job is one delta submission: when it was sent, first seen running, and
// seen done.
type job struct {
	submit, running, done time.Time
}

// loadResult is what the load phase observed.
type loadResult struct {
	reads   []request
	samples []sample
	late    []float64 // ms the generator sent each query after its due time
	jobs    []job
	elapsed time.Duration
}

// runLoad runs the open-loop reads and the closed-loop writer for
// cfg.seconds; the writer then submits one more delta if needed so that an
// even number of deltas has been applied and the head's target equals
// release v2 again.
func runLoad(ctx context.Context, cfg *config, client *http.Client, base string, in *serveInputs, tr *tracer) (*loadResult, error) {
	lr := &loadResult{reads: in.reads, samples: make([]sample, len(in.reads)), late: make([]float64, len(in.reads))}
	interval := time.Second / time.Duration(cfg.sizes.serveQPS)
	start := time.Now().Add(10 * time.Millisecond)
	readsDone := make(chan struct{})

	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lr.jobs, writerErr = writeLoop(ctx, client, base, in, cfg.sizes.deltaGap, readsDone)
	}()

	var reads sync.WaitGroup
	for i, r := range in.reads {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if ctx.Err() != nil {
			break
		}
		lr.late[i] = ms(time.Since(due))
		reads.Add(1)
		go func(s *sample, path string, due time.Time) {
			defer reads.Done()
			*s = query(ctx, client, base+path, due)
		}(&lr.samples[i], r.path, due)
	}
	reads.Wait()
	lr.elapsed = time.Since(start)
	close(readsDone)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if writerErr != nil {
		return nil, writerErr
	}
	if tr != nil {
		lr.record(tr)
	}
	return lr, nil
}

// query sends one GET and reads the whole response.
func query(ctx context.Context, client *http.Client, u string, due time.Time) sample {
	s := sample{due: due}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		s.err = err
		return s
	}
	s.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		s.err, s.done = err, time.Now()
		return s
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done, s.status = time.Now(), resp.StatusCode
	return s
}

// jobInfo is the part of rdfalignd's job record the writer reads.
type jobInfo struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// writeLoop submits δ and δ⁻¹ alternately, polling each job every 5 ms
// until it is done and waiting at least gap between submissions. It stops
// once readsDone is closed and an even number of deltas is done.
func writeLoop(ctx context.Context, client *http.Client, base string, in *serveInputs, gap time.Duration, readsDone <-chan struct{}) ([]job, error) {
	var jobs []job
	stopped := false
	for {
		select {
		case <-readsDone:
			stopped = true
		default:
		}
		if stopped && len(jobs)%2 == 0 || ctx.Err() != nil {
			return jobs, nil
		}
		body := in.fwd
		if len(jobs)%2 == 1 {
			body = in.bwd
		}
		j, err := runDeltaJob(ctx, client, base, body)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		if wait := time.Until(j.submit.Add(gap)); wait > 0 && !stopped {
			select {
			case <-time.After(wait):
			case <-readsDone:
				stopped = true
			case <-ctx.Done():
			}
		}
	}
}

// runDeltaJob submits one delta and polls its job until it is done.
func runDeltaJob(ctx context.Context, client *http.Client, base string, script []byte) (job, error) {
	j := job{submit: time.Now()}
	resp, err := client.Post(base+"/archives/bench/deltas", "text/plain", bytes.NewReader(script))
	if err != nil {
		return j, err
	}
	var info jobInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return j, fmt.Errorf("submit delta: status %d: %v", resp.StatusCode, err)
	}
	for {
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		resp, err := client.Get(base + "/jobs/" + info.ID)
		if err != nil {
			return j, err
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			return j, fmt.Errorf("poll job %s: %w", info.ID, err)
		}
		now := time.Now()
		switch info.State {
		case "queued":
		case "running":
			if j.running.IsZero() {
				j.running = now
			}
		case "done":
			if j.running.IsZero() {
				j.running = now
			}
			j.done = now
			return j, nil
		default:
			return j, fmt.Errorf("delta job %s %s: %s", info.ID, info.State, info.Error)
		}
	}
}

// checkServe runs the serve gates: every answered query parses as JSON,
// and /matches answers for the gate URIs equal the library's alignment of
// releases v1 and v2 (the head's target is v2 again after an even number of
// deltas).
func checkServe(ctx context.Context, client *http.Client, base string, gate []gateQuery, lr *loadResult) error {
	for i, s := range lr.samples {
		if s.err == nil && s.status == http.StatusOK && !json.Valid(s.body) {
			return fmt.Errorf("%s answered with invalid JSON: %q", lr.reads[i].path, s.body)
		}
	}
	for _, q := range gate {
		s := query(ctx, client, base+"/archives/bench/matches?uri="+url.QueryEscape(q.uri), time.Now())
		if s.err != nil || s.status != http.StatusOK {
			return fmt.Errorf("gate query %s: status %d: %v", q.uri, s.status, s.err)
		}
		var got struct {
			Found   bool   `json:"found"`
			Matches []term `json:"matches"`
		}
		if err := json.Unmarshal(s.body, &got); err != nil {
			return fmt.Errorf("gate query %s: %w", q.uri, err)
		}
		if !got.Found || !sameTerms(got.Matches, q.want) {
			return fmt.Errorf("matches of %s: server %v (found %v), library %v", q.uri, got.Matches, got.Found, q.want)
		}
	}
	return nil
}

func sameTerms(a, b []term) bool {
	key := func(ts []term) string {
		ks := make([]string, len(ts))
		for i, t := range ts {
			ks[i] = t.Kind + ":" + t.Value
		}
		sort.Strings(ks)
		return strings.Join(ks, "\x00")
	}
	return len(a) == len(b) && key(a) == key(b)
}

// latency returns a query's latency from its due time in ms; +Inf for a
// failed query. Go's timers wake the generator 0–1 ms after a
// sub-millisecond sleep, so about half a millisecond of every latency is
// the generator's clock granularity, the same on every commit.
func (s *sample) latency() float64 {
	if s.err != nil || s.status != http.StatusOK {
		return math.Inf(1)
	}
	return ms(s.done.Sub(s.due))
}

// record adds one span pair per odd query (the traced half; even queries
// are the untraced half trace.overhead_frac compares with): the operation
// from its due time, and the request from when it was sent. Delta jobs are
// recorded as spans outside the operations.
func (lr *loadResult) record(tr *tracer) {
	for i := 1; i < len(lr.samples); i += 2 {
		s := &lr.samples[i]
		if s.sent.IsZero() {
			continue
		}
		root := tr.add(span{Name: "op", Layer: layerOp, Op: i, Parent: -1, Start: tr.since(s.due), End: tr.since(s.done)})
		tr.add(span{Name: routes[lr.reads[i].route].name, Layer: layerServer, Op: i, Parent: root, Start: tr.since(s.sent), End: tr.since(s.done)})
	}
	for _, j := range lr.jobs {
		tr.add(span{Name: "delta_job", Layer: layerServer, Op: -1, Parent: -1, Start: tr.since(j.submit), End: tr.since(j.done)})
	}
}

// summarise fills the result's latencies, counters and header, normalised
// for a load during which the reference task took ref ms. Delta jobs are
// processor work and scale like batch operations. About half of a query's
// latency is processor work; the rest (scheduling, the network stack)
// slows less when the machine does. Over 24 runs spanning a change of
// machine load, scaling half of it spread the query median by 3.2%,
// against 4.6% unscaled and 8.4% scaled in full.
func (lr *loadResult) summarise(cfg *config, res *result, ref float64) {
	jobScale := refNominal / ref
	queryScale := 1 / (0.5*ref/refNominal + 0.5)
	byRoute := make([][]float64, len(routes))
	for i := range lr.samples {
		s := &lr.samples[i]
		l := s.latency() * queryScale
		res.ops++
		if math.IsInf(l, 1) {
			res.failed++
		}
		if cfg.trace && i%2 == 1 {
			res.traced = append(res.traced, l)
		} else {
			res.lat = append(res.lat, l)
		}
		byRoute[lr.reads[i].route] = append(byRoute[lr.reads[i].route], l)
	}
	var wait, run, total []float64
	for _, j := range lr.jobs {
		wait = append(wait, ms(j.running.Sub(j.submit))*jobScale)
		run = append(run, ms(j.done.Sub(j.running))*jobScale)
		total = append(total, ms(j.done.Sub(j.submit))*jobScale)
	}
	all := append(append([]float64(nil), res.lat...), res.traced...)
	res.layer["server.rejected"] = float64(res.failed)
	res.layer["server.delta_jobs"] = float64(len(lr.jobs))
	res.header = append(res.header,
		fmt.Sprintf("load: %d queries at %d/s over %.2f s (open loop), %d delta jobs (closed loop, ≥%v apart)",
			len(lr.samples), cfg.sizes.serveQPS, lr.elapsed.Seconds(), len(lr.jobs), cfg.sizes.deltaGap),
		fmt.Sprintf("loadgen.late_p99_ms=%.3f valid=%v", percentile(lr.late, 99), percentile(lr.late, 99) <= 10),
		fmt.Sprintf("server.query_p99_ms=%.3f server.query_p999_ms=%.3f", percentile(all, 99), percentile(all, 99.9)),
		fmt.Sprintf("server.delta_job_p50_ms=%.3f server.job_wait_p50_ms=%.3f server.job_run_p50_ms=%.3f",
			percentile(total, 50), percentile(wait, 50), percentile(run, 50)),
		fmt.Sprintf("server.first_after_publish_ms=%.3f", lr.firstAfterPublish()*queryScale),
	)
	for r, ls := range byRoute {
		res.header = append(res.header, fmt.Sprintf("server.%s_p50_ms=%.3f server.%s_p99_ms=%.3f (%d queries)",
			routes[r].name, percentile(ls, 50), routes[r].name, percentile(ls, 99), len(ls)))
	}
}

// firstAfterPublish is the median latency of the first query of each route
// sent after each delta job was seen done: the cost of rebuilding a new
// head's lazy indexes.
func (lr *loadResult) firstAfterPublish() float64 {
	var firsts []float64
	for _, j := range lr.jobs {
		seen := make([]bool, len(routes))
		for i := range lr.samples {
			s := &lr.samples[i]
			if r := lr.reads[i].route; !seen[r] && !s.sent.Before(j.done) {
				seen[r] = true
				firsts = append(firsts, s.latency())
			}
		}
	}
	return percentile(firsts, 50)
}
