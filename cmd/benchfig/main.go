// Command benchfig regenerates the evaluation figures of Buneman &
// Staworko (PVLDB 2016) on the synthetic datasets:
//
//	benchfig -fig 9          # EFO dataset sizes
//	benchfig -fig 10         # Trivial/Deblank aligned-edge matrices
//	benchfig -fig 11         # Hybrid and Overlap gains
//	benchfig -fig 12         # GtoPdb dataset sizes
//	benchfig -fig 13         # aligned entities per consecutive pair
//	benchfig -fig 14         # precision vs ground truth
//	benchfig -fig 15         # threshold sweep on versions 3–4
//	benchfig -fig 16         # DBpedia scalability timings
//	benchfig -fig all        # everything, in order
//	benchfig -fig ablations  # the DESIGN.md ablations
//	benchfig -fig archive    # the §6 multi-version archive experiment
//	benchfig -fig depth      # bounded-depth sweep: datasets × depth bounds
//
// Scales are relative to the paper's dataset sizes; -scale multiplies the
// defaults (which regenerate each figure in seconds). -progress streams
// per-round fixpoint progress to stderr for every alignment that runs
// through the shared pair cache (Figures 10, 11, 13–15, the archive
// experiment, and the ablations that reuse cached pairs); the Figure 16
// timing runs and the ablations' timed sections drive the engines directly
// and stay silent so the measurements are not perturbed.
//
// -json FILE additionally records the Figure 16 wall-clock timings in the
// shared benchmark-baseline schema (internal/benchjson) — the same schema
// BENCH_refine.json uses and CI's benchstat step consumes through
// cmd/benchgate, so locally measured numbers and CI numbers are directly
// comparable (`benchgate -baseline FILE -emit | benchstat ...`).
package main

import (
	"flag"
	"fmt"
	"os"

	"rdfalign/internal/benchjson"
	"rdfalign/internal/core"
	"rdfalign/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 9…16, all, archive, ablations, or depth")
	scale := flag.Float64("scale", 1.0, "multiplier on the default dataset scales")
	seed := flag.Int64("seed", 0, "override the dataset seed (0 = default)")
	theta := flag.Float64("theta", 0, "override θ (0 = paper default 0.65)")
	progress := flag.Bool("progress", false, "stream per-round alignment progress to stderr (pair-based figures and archive)")
	jsonOut := flag.String("json", "", "write the Figure 16 timings to this file in the BENCH_refine.json schema")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.EFOScale *= *scale
	cfg.GtoPdbScale *= *scale
	cfg.DBpediaScale *= *scale
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *theta != 0 {
		cfg.Theta = *theta
	}
	if *progress {
		cfg.Hooks.OnRound = func(ev core.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "benchfig: %s round %d\n", ev.Stage, ev.Round)
		}
	}
	env := experiments.NewEnv(cfg)

	runners := map[string]func() fmt.Stringer{
		"9":  func() fmt.Stringer { return env.Fig9() },
		"10": func() fmt.Stringer { return env.Fig10() },
		"11": func() fmt.Stringer { return env.Fig11() },
		"12": func() fmt.Stringer { return env.Fig12() },
		"13": func() fmt.Stringer { return env.Fig13() },
		"14": func() fmt.Stringer { return env.Fig14() },
		"15": func() fmt.Stringer { return env.Fig15() },
	}
	order := []string{"9", "10", "11", "12", "13", "14", "15", "16"}
	ablations := []func() fmt.Stringer{
		func() fmt.Stringer { return env.AblationSigmaEdit() },
		func() fmt.Stringer { return env.AblationPrefixFilter() },
		func() fmt.Stringer { return env.AblationRefinement() },
		func() fmt.Stringer { return env.AblationContext() },
		func() fmt.Stringer { return env.AblationFlooding() },
	}

	// Figure 16 keeps its result around so -json can record the timings
	// without a second (re-measured) run.
	var fig16 *experiments.Fig16Result
	runners["16"] = func() fmt.Stringer {
		fig16 = env.Fig16()
		return fig16
	}

	switch *fig {
	case "all":
		for _, f := range order {
			fmt.Println(runners[f]())
		}
	case "ablations":
		for _, f := range ablations {
			fmt.Println(f())
		}
	case "archive":
		fmt.Println(env.ExperimentArchive())
	case "depth":
		sweep := env.DepthSweep()
		fmt.Println(sweep)
		if *jsonOut != "" {
			if err := writeDepthJSON(*jsonOut, sweep, *scale); err != nil {
				fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
				os.Exit(1)
			}
		}
	default:
		run, ok := runners[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchfig: unknown figure %q\n", *fig)
			flag.Usage()
			os.Exit(2)
		}
		fmt.Println(run())
	}

	if *jsonOut != "" && *fig != "depth" {
		if fig16 == nil {
			fig16 = env.Fig16()
		}
		if err := writeFig16JSON(*jsonOut, fig16, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeFig16JSON records the scalability timings in the shared baseline
// schema, one benchmark-style name per (pair, method) so benchgate and
// benchstat can compare runs directly.
func writeFig16JSON(path string, r *experiments.Fig16Result, scale float64) error {
	w := benchjson.Workload{
		Name: "BenchmarkFig16DBpediaScalability",
		Note: fmt.Sprintf("benchfig -fig 16 -scale %g: wall-clock alignment times on consecutive DBpedia pairs", scale),
	}
	for _, row := range r.Rows {
		prefix := "BenchmarkFig16DBpediaScalability/pair-" + row.Pair
		w.Results = append(w.Results,
			benchjson.Result{Bench: prefix + "/trivial", NsOp: float64(row.Trivial.Nanoseconds())},
			benchjson.Result{Bench: prefix + "/hybrid", NsOp: float64(row.Hybrid.Nanoseconds())},
			benchjson.Result{Bench: prefix + "/overlap", NsOp: float64(row.Overlap.Nanoseconds())},
		)
	}
	f := benchjson.File{
		Description: "benchfig Figure 16 timings in the shared BENCH_refine.json schema (internal/benchjson)",
		Workloads:   []benchjson.Workload{w},
	}
	f.StampMachine()
	return f.WriteFile(path)
}

// writeDepthJSON records the bounded-depth sweep timings in the shared
// baseline schema (one row per dataset × depth cell).
func writeDepthJSON(path string, r *experiments.DepthSweepResult, scale float64) error {
	f := benchjson.File{
		Description: "benchfig bounded-depth sweep timings in the shared BENCH_refine.json schema (internal/benchjson)",
		Workloads: []benchjson.Workload{
			r.Workload(fmt.Sprintf("benchfig -fig depth -scale %g: wall-clock deblank+hybrid times per dataset and depth bound", scale)),
		},
	}
	f.StampMachine()
	return f.WriteFile(path)
}
