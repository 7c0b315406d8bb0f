// Command rdfbench is the repository benchmark. It generates the inputs of
// one workload from a seed, drives the program through the exported
// functions of its layers (and through HTTP for rdfalignd), checks the
// outputs against independent computations, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 18, "failed": 0, "metrics": {"op_p50_ms": {"value": 512.3, "unit": "ms"}, ...}}
//
// Without tracing the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, computed from spans recorded around each layer
// call and written to a span file. A failed correctness gate exits non-zero
// and prints no metrics. run.sh builds the binaries and runs the command;
// README.md describes the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark run. Tests shrink sizes and seconds.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// setups is the number of timed set-ups per run; setup_s is their
	// median and the last one's state is measured.
	setups int
	sizes  sizes
	// daemon is the rdfalignd binary serve-mixed starts.
	daemon string
	// traceOut is the span file a traced run writes.
	traceOut string
}

// sizes are the input sizes of the workloads.
type sizes struct {
	ingestTriples int           // ingest-stream: triples of release v1
	gtopdbScale   float64       // align-gtopdb: GtoPdbConfig.Scale
	deltaTriples  int           // delta-maintain: triples of v1
	serveTriples  int           // serve-mixed: triples of v1
	serveQPS      int           // serve-mixed: open-loop query rate
	serveGate     int           // serve-mixed: /matches answers checked against the library
	deltaGap      time.Duration // serve-mixed: least time between delta submissions
}

var defaultSizes = sizes{
	ingestTriples: 100_000,
	gtopdbScale:   0.2,
	deltaTriples:  200_000,
	serveTriples:  200_000,
	serveQPS:      1000,
	serveGate:     200,
	deltaGap:      time.Second,
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *config) (*result, error){
	"ingest-stream":  runIngest,
	"align-gtopdb":   runAlign,
	"delta-maintain": runDelta,
	"serve-mixed":    runServe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 records layer spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "rdfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "rdfbench: --trace %d outside {0, 1}\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "rdfbench: --seconds %v outside (0, ∞)\n", *seconds)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfbench:", err)
		return 1
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		setups:   5,
		sizes:    defaultSizes,
		daemon:   filepath.Join(filepath.Dir(exe), "rdfalignd"),
		traceOut: filepath.Join(os.TempDir(), fmt.Sprintf("rdfbench-trace-%s-seed%d.json", *workload, *seed)),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfbench:", err)
		return 1
	}
	if err := report(os.Stdout, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "rdfbench:", err)
		return 1
	}
	return 0
}

// run executes one workload, checks its gates and, for a traced run,
// writes the span file.
func run(ctx context.Context, cfg *config) (*result, error) {
	res, err := workloads[cfg.workload](ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := res.tracer.writeFile(cfg.traceOut); err != nil {
			return nil, err
		}
		res.header = append(res.header, "spans written to "+cfg.traceOut)
	}
	return res, nil
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run; every workload reports each
// of them (BENCHMARK.json's end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run (BENCHMARK.json's per_layer).
// A layer a workload never calls reads 0: that workload is the one on which
// a change to the layer predicts no change.
var perLayer = []metricDef{
	{"trace.op_p50_ms", "ms"},
	{"trace.op_p90_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"rdf.self_frac", "ratio"},
	{"rdf.alloc_mb_per_op", "MiB"},
	{"core.self_frac", "ratio"},
	{"core.alloc_mb_per_op", "MiB"},
	{"core.refine_rounds", "count"},
	{"core.refine_dirty", "count"},
	{"similarity.self_frac", "ratio"},
	{"similarity.alloc_mb_per_op", "MiB"},
	{"similarity.overlap_rounds", "count"},
	{"similarity.propagate_rounds", "count"},
	{"similarity.propagate_dirty", "count"},
	{"similarity.pairs", "count"},
	{"archive.self_frac", "ratio"},
	{"archive.alloc_mb_per_op", "MiB"},
	{"archive.rows", "count"},
	{"snapshot.self_frac", "ratio"},
	{"snapshot.alloc_mb_per_op", "MiB"},
	{"snapshot.bytes_per_triple", "B"},
	{"session.self_frac", "ratio"},
	{"session.alloc_mb_per_op", "MiB"},
	{"server.self_frac", "ratio"},
	{"server.rejected", "count"},
	{"server.delta_jobs", "count"},
	{"quality.exact", "count"},
	{"quality.false", "count"},
	{"quality.missing", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the result header, one line per metric and the JSON line.
func report(w io.Writer, cfg *config, res *result) error {
	defs, vals := endToEnd, res.endToEnd()
	if cfg.trace {
		defs, vals = perLayer, res.perLayer()
	}
	line := resultLine{Correct: true, Attempted: res.ops, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s reported no %s", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s measured %s = %v (too many failed operations?)", cfg.workload, d.name, v)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%v trace=%v ops=%d failed_ops=%d\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace, res.ops, res.failed)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), gitCommit())
	for _, h := range res.header {
		fmt.Fprintln(w, "#", h)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-30s %14.4f %s\n", d.name, line.Metrics[d.name].Value, d.unit)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// cpuModel returns the first model name in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the commit of the checkout in the working directory, or
// "unknown" when it is not a git repository. git is kept from searching the
// directories above the checkout.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "--short=12", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
