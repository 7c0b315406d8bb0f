package main

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestNormalizeStampsMachine checks that -normalize heads its output with
// the measuring machine's configuration lines, as -emit does for the
// baseline, and strips the -GOMAXPROCS suffix from benchmark names.
func TestNormalizeStampsMachine(t *testing.T) {
	raw := "goos: linux\nBenchmarkA-8   \t      10\t   1234 ns/op\nPASS\n"
	var out strings.Builder
	if err := normalize(&out, strings.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("nproc: %d\ngomaxprocs: %d\ngo: %s\nBenchmarkA 1 1234 ns/op\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if out.String() != want {
		t.Errorf("normalize wrote\n%s\nwant\n%s", out.String(), want)
	}
}

func TestGatePassAndFail(t *testing.T) {
	old := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200}

	var out strings.Builder
	ok, err := gate(&out, old, map[string]float64{"BenchmarkA": 105, "BenchmarkB": 190}, 1.20)
	if err != nil || !ok {
		t.Fatalf("in-budget run gated: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Fatalf("missing PASS:\n%s", out.String())
	}

	out.Reset()
	ok, err = gate(&out, old, map[string]float64{"BenchmarkA": 200, "BenchmarkB": 400}, 1.20)
	if err != nil || ok {
		t.Fatalf("2x regression passed: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("missing FAIL:\n%s", out.String())
	}
}

// TestGateNewBenchmarksWarnDontFail pins the first-run behaviour: a
// measured benchmark with no baseline entry — even when it is the only
// one — warns and passes instead of erroring, so the PR introducing a
// benchmark doesn't have to land its baseline in the same commit.
func TestGateNewBenchmarksWarnDontFail(t *testing.T) {
	old := map[string]float64{"BenchmarkA": 100}

	var out strings.Builder
	ok, err := gate(&out, old, map[string]float64{"BenchmarkA": 100, "BenchmarkNew": 50}, 1.20)
	if err != nil || !ok {
		t.Fatalf("run with one new benchmark gated: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "NOTE: measured benchmark has no baseline") {
		t.Fatalf("missing unbaselined NOTE:\n%s", out.String())
	}

	// Empty intersection: only new benchmarks measured.
	out.Reset()
	ok, err = gate(&out, old, map[string]float64{"BenchmarkNew": 50}, 1.20)
	if err != nil || !ok {
		t.Fatalf("all-new run gated: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "nothing to gate") || !strings.Contains(out.String(), "PASS") {
		t.Fatalf("all-new run should warn and pass:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "WARNING: baseline benchmark not measured") {
		t.Fatalf("dropped baseline benchmark should still warn:\n%s", out.String())
	}
}

func TestGateEmptyMeasurementErrors(t *testing.T) {
	var out strings.Builder
	if _, err := gate(&out, map[string]float64{"BenchmarkA": 100}, nil, 1.20); err == nil {
		t.Fatal("empty measurement must be an error, not a silent pass")
	}
}
