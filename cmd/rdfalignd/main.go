// Command rdfalignd serves resident RDF archives over HTTP: alignment as
// a service. Archives are loaded from binary snapshots at startup (or
// uploaded at runtime), kept in memory, and queried concurrently through
// the read-only relation endpoints while new versions and delta scripts
// are aligned asynchronously by a bounded job pool.
//
//	rdfalignd -addr :8425 -archive dblp=dblp.snap -archive wiki=wiki.snap
//
// Endpoints (see the repository README for the full table and curl
// examples):
//
//	GET  /healthz                              liveness + budget gauges
//	GET  /archives                             list resident archives
//	PUT  /archives/{name}                      load snapshot or N-Triples (sync)
//	GET  /archives/{name}                      summary
//	GET  /archives/{name}/stats                §6 archive statistics
//	GET  /archives/{name}/versions             per-version node/triple counts
//	GET  /archives/{name}/versions/{v}         download one version as N-Triples
//	POST /archives/{name}/versions             align an uploaded version (async job)
//	POST /archives/{name}/deltas               apply an edit script (async job)
//	GET  /archives/{name}/aligned?source=&target=
//	GET  /archives/{name}/distance?source=&target=
//	GET  /archives/{name}/matches?uri=
//	GET  /archives/{name}/resolve?uri=&from=&to=
//	GET  /jobs, GET /jobs/{id}, DELETE /jobs/{id}
//
// The worker budget is split between the query path (-query-workers) and
// the alignment pool (-align-jobs): a long-running alignment can never
// starve queries. SIGINT/SIGTERM drain in-flight requests and cancel
// running jobs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdfalign"
	"rdfalign/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("rdfalignd: ")

	var (
		addr         = flag.String("addr", ":8425", "listen address")
		method       = flag.String("method", "hybrid", "alignment method: "+methodNames())
		theta        = flag.Float64("theta", 0.9, "similarity threshold for overlap/sigmaedit")
		resolveAmbig = flag.Bool("resolve-ambiguous", false, "greedily resolve ambiguous blank-node matches")
		queryWorkers = flag.Int("query-workers", 16, "max concurrently executing queries")
		alignJobs    = flag.Int("align-jobs", 1, "max concurrently running alignment jobs")
		alignWorkers = flag.Int("align-workers", 0, "overlap-matching goroutines per alignment; refinement is sequential (0 = all cores)")
		queryTimeout = flag.Duration("query-timeout", 10*time.Second, "per-query deadline, including budget wait")
		maxBody      = flag.Int64("max-body-bytes", server.DefaultMaxUploadBytes, "max request body bytes; oversized uploads are rejected with 413")
		jobHistory   = flag.Int("job-history", server.DefaultJobHistory, "terminal jobs retained per archive before the oldest are evicted")
		storageMode  = flag.String("storage", "mem", "alignment working-set storage: mem (Go heap) or disk (mmap-backed scratch files + spilled signature grouping in -storage-dir; scratch space is reclaimed only at process exit)")
		storageDir   = flag.String("storage-dir", "", "directory for -storage disk scratch and spill files (default: the system temp directory)")
	)
	archives := map[string]string{}
	flag.Func("archive", "archive to load at startup, as name=snapshot-path (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		if _, dup := archives[name]; dup {
			return fmt.Errorf("archive %q given twice", name)
		}
		archives[name] = path
		return nil
	})
	flag.Parse()

	if err := validateFlags(*queryWorkers, *alignJobs, *alignWorkers, *jobHistory, *queryTimeout, *maxBody, *storageMode); err != nil {
		log.Fatal(err)
	}
	if err := run(*addr, archives, *method, *theta, *resolveAmbig, *queryWorkers, *alignJobs, *alignWorkers, *jobHistory, *queryTimeout, *maxBody, *storageMode, *storageDir); err != nil {
		log.Fatal(err)
	}
}

// validateFlags rejects nonsensical sizing flags at startup instead of
// letting them misbehave at runtime (a zero query-worker budget would
// deadlock every query; a zero upload bound would reject every body). The
// error wording follows similarity.ValidateTheta's convention: the value,
// its accepted range, and what the special value selects.
func validateFlags(queryWorkers, alignJobs, alignWorkers, jobHistory int, queryTimeout time.Duration, maxUpload int64, storageMode string) error {
	if queryWorkers < 1 {
		return fmt.Errorf("-query-workers %d outside [1, ∞)", queryWorkers)
	}
	if alignJobs < 1 {
		return fmt.Errorf("-align-jobs %d outside [1, ∞)", alignJobs)
	}
	if alignWorkers < 0 {
		return fmt.Errorf("-align-workers %d outside [0, ∞) (zero selects all cores)", alignWorkers)
	}
	if jobHistory < 1 {
		return fmt.Errorf("-job-history %d outside [1, ∞)", jobHistory)
	}
	if queryTimeout <= 0 {
		return fmt.Errorf("-query-timeout %v outside (0, ∞)", queryTimeout)
	}
	if maxUpload < 1 {
		return fmt.Errorf("-max-body-bytes %d outside [1, ∞) bytes", maxUpload)
	}
	if storageMode != "mem" && storageMode != "disk" {
		return fmt.Errorf("unknown -storage mode %q (want mem or disk)", storageMode)
	}
	return nil
}

func methodNames() string {
	names := make([]string, 0, len(rdfalign.Methods()))
	for _, m := range rdfalign.Methods() {
		names = append(names, m.String())
	}
	return strings.Join(names, ", ")
}

func run(addr string, archives map[string]string, method string, theta float64, resolveAmbig bool, queryWorkers, alignJobs, alignWorkers, jobHistory int, queryTimeout time.Duration, maxUpload int64, storageMode, storageDir string) error {
	m, err := rdfalign.ParseMethod(method)
	if err != nil {
		return err
	}
	opts := []rdfalign.Option{
		rdfalign.WithMethod(m),
		rdfalign.WithTheta(theta),
		rdfalign.WithParallelism(alignWorkers),
	}
	if resolveAmbig {
		opts = append(opts, rdfalign.WithResolveAmbiguous())
	}
	if storageMode == "disk" {
		// Out-of-core alignment arrays: mmap-backed scratch files in the
		// storage directory instead of the Go heap, with external-merge
		// signature grouping. Results are bit-identical to heap mode.
		opts = append(opts, rdfalign.WithStorage(rdfalign.OutOfCore(storageDir)))
	}
	base, err := rdfalign.NewAligner(opts...)
	if err != nil {
		return err
	}

	srv, err := server.New(server.Config{
		Aligner:        base,
		QueryWorkers:   queryWorkers,
		AlignJobs:      alignJobs,
		QueryTimeout:   queryTimeout,
		MaxUploadBytes: maxUpload,
		JobHistory:     jobHistory,
		Logf:           log.Printf,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for name, path := range archives {
		start := time.Now()
		if err := srv.LoadSnapshotFile(ctx, name, path); err != nil {
			return fmt.Errorf("load -archive %s=%s: %w", name, path, err)
		}
		log.Printf("archive %q resident in %v", name, time.Since(start).Round(time.Millisecond))
	}

	hs := &http.Server{Addr: addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (%d archives, %d query workers, %d align jobs)",
			addr, len(archives), queryWorkers, alignJobs)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("signal received; draining")
	srv.Close() // cancel running jobs
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("bye")
	return nil
}
