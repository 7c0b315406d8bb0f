// Command benchgate is the benchmark regression gate CI runs on pull
// requests, built on the shared BENCH_refine.json schema (internal/benchjson).
// Three modes:
//
//	benchgate -baseline BENCH_refine.json -emit
//	    Flatten the checked-in baseline into Go benchmark text on stdout —
//	    the "old" input to benchstat — headed by the baseline's recorded
//	    machine fields (nproc, gomaxprocs, go) as configuration lines.
//
//	benchgate -normalize raw.txt
//	    Re-emit the measured `go test -bench` output with benchmark names
//	    normalized (the -GOMAXPROCS suffix stripped) — the "new" input to
//	    benchstat, so names match the baseline across machines — headed by
//	    the measuring machine's nproc, gomaxprocs and go configuration
//	    lines. Run it on the machine that ran the benchmarks.
//
//	benchgate -baseline BENCH_refine.json -new raw.txt -max-ratio 1.20
//	    The gate: take the median measured ns/op per benchmark (across
//	    -count repetitions; medians resist scheduler-noise outliers on
//	    sub-millisecond workloads), compute the geometric mean of new/old
//	    over every benchmark present in both, and exit non-zero when it
//	    exceeds -max-ratio. A per-benchmark table goes to stdout either
//	    way.
//
// The geomean compares a checked-in baseline from one machine against a CI
// runner; a uniformly faster or slower machine shifts every ratio equally,
// which the per-benchmark table makes easy to spot before trusting a
// failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"rdfalign/internal/benchjson"
)

func main() {
	baseline := flag.String("baseline", "", "path to the BENCH_refine.json baseline")
	emit := flag.Bool("emit", false, "emit the baseline as Go benchmark text and exit")
	normalize := flag.String("normalize", "", "re-emit this bench output with normalized names and exit")
	newPath := flag.String("new", "", "measured `go test -bench` output to gate")
	maxRatio := flag.Float64("max-ratio", 1.20, "fail when geomean(new/old) exceeds this")
	flag.Parse()

	switch {
	case *normalize != "":
		if err := runNormalize(*normalize); err != nil {
			fatal(err)
		}
	case *emit:
		if *baseline == "" {
			fatal(fmt.Errorf("-emit requires -baseline"))
		}
		if err := runEmit(*baseline); err != nil {
			fatal(err)
		}
	case *newPath != "":
		if *baseline == "" {
			fatal(fmt.Errorf("-new requires -baseline"))
		}
		ok, err := runGate(*baseline, *newPath, *maxRatio)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}

func runEmit(baseline string) error {
	f, err := benchjson.ReadFile(baseline)
	if err != nil {
		return err
	}
	if err := f.WriteConfig(os.Stdout); err != nil {
		return err
	}
	return benchjson.WriteBenchText(os.Stdout, f.Flatten())
}

func runNormalize(path string) error {
	r, err := os.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	return normalize(os.Stdout, r)
}

// normalize writes the running machine's configuration lines and then
// every result of the bench output in r under its normalized name.
func normalize(w io.Writer, r io.Reader) error {
	results, err := benchjson.ParseBenchOutput(r)
	if err != nil {
		return err
	}
	var machine benchjson.File
	machine.StampMachine()
	if err := machine.WriteConfig(w); err != nil {
		return err
	}
	for _, res := range results {
		if _, err := fmt.Fprintf(w, "%s 1 %.0f ns/op\n", res.Bench, res.NsOp); err != nil {
			return err
		}
	}
	return nil
}

func runGate(baseline, newPath string, maxRatio float64) (bool, error) {
	f, err := benchjson.ReadFile(baseline)
	if err != nil {
		return false, err
	}
	r, err := os.Open(newPath)
	if err != nil {
		return false, err
	}
	defer r.Close()
	results, err := benchjson.ParseBenchOutput(r)
	if err != nil {
		return false, err
	}
	return gate(os.Stdout, f.Flatten(), benchjson.Median(results), maxRatio)
}

// gate compares measured medians against the baseline and decides
// pass/fail. New benchmarks without a baseline entry are reported but do
// not fail the gate — not even when *no* measured benchmark has a
// baseline yet, the normal state of the PR that introduces a benchmark
// before its baseline lands. Only an empty measurement is an error: that
// means the bench run itself produced nothing gateable.
func gate(w io.Writer, old, fresh map[string]float64, maxRatio float64) (bool, error) {
	var names, unmeasured, unbaselined []string
	for n := range fresh {
		if _, ok := old[n]; ok {
			names = append(names, n)
		} else {
			unbaselined = append(unbaselined, n)
		}
	}
	for n := range old {
		if _, ok := fresh[n]; !ok {
			unmeasured = append(unmeasured, n)
		}
	}
	if len(fresh) == 0 {
		return false, fmt.Errorf("no benchmark results to gate (empty or unparsable bench output)")
	}
	// Coverage gaps are loud: a renamed or broken benchmark must not
	// silently shrink the gated set.
	sort.Strings(unmeasured)
	for _, n := range unmeasured {
		fmt.Fprintf(w, "WARNING: baseline benchmark not measured in this run (renamed? broken?): %s\n", n)
	}
	sort.Strings(unbaselined)
	for _, n := range unbaselined {
		fmt.Fprintf(w, "NOTE: measured benchmark has no baseline (add it to BENCH_refine.json): %s\n", n)
	}
	if len(names) == 0 {
		fmt.Fprintf(w, "\nWARNING: no measured benchmark has a baseline entry yet; nothing to gate\nPASS\n")
		return true, nil
	}
	sort.Strings(names)
	logSum := 0.0
	fmt.Fprintf(w, "%-60s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, n := range names {
		ratio := fresh[n] / old[n]
		logSum += math.Log(ratio)
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %8.3f\n", n, old[n], fresh[n], ratio)
	}
	geomean := math.Exp(logSum / float64(len(names)))
	fmt.Fprintf(w, "\ngeomean(new/old) over %d benchmarks: %.3f (gate: %.2f)\n", len(names), geomean, maxRatio)
	if geomean > maxRatio {
		fmt.Fprintf(w, "FAIL: geomean regression %.1f%% exceeds %.0f%%\n", (geomean-1)*100, (maxRatio-1)*100)
		return false, nil
	}
	fmt.Fprintln(w, "PASS")
	return true, nil
}
