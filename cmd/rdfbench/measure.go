package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result is what one workload run measured.
type result struct {
	ops, failed int
	setup       []float64 // seconds per set-up
	lat         []float64 // ms per untraced operation; +Inf for a failed one
	traced      []float64 // ms per traced operation
	rssMB       float64   // peak resident set of the measured phase
	gcFrac      float64   // share of the process's CPU time spent in GC
	allocPerOp  float64   // MiB allocated per operation
	tracer      *tracer   // nil on untraced runs
	// layer holds per-layer counters the workload measured itself.
	layer  map[string]float64
	header []string
}

func newResult() *result { return &result{layer: map[string]float64{}} }

// endToEnd returns the end-to-end metrics by name.
func (r *result) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":     percentile(r.setup, 50),
		"op_p50_ms":   percentile(r.lat, 50),
		"peak_rss_mb": r.rssMB,
	}
}

// perLayer returns the per-layer metrics by name; layers without spans and
// counters the workload never set are absent.
func (r *result) perLayer() map[string]float64 {
	m := r.tracer.layerMetrics(len(r.traced))
	m["trace.op_p50_ms"] = percentile(r.traced, 50)
	m["trace.op_p90_ms"] = percentile(r.traced, 90)
	m["trace.overhead_frac"] = percentile(r.traced, 50)/percentile(r.lat, 50) - 1
	m["runtime.gc_cpu_frac"] = r.gcFrac
	m["runtime.alloc_mb_per_op"] = r.allocPerOp
	for k, v := range r.layer {
		m[k] = v
	}
	return m
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (NaN for no samples). An infinite sample makes
// every percentile reaching it infinite.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if hi == lo || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// batch is a workload whose operations run one after another: a closed
// loop with one client.
type batch interface {
	// setup builds the measured state from the generated inputs. It runs
	// cfg.setups times and is timed; the last state is measured.
	setup(ctx context.Context) error
	// op runs operation i; tr is nil on untraced operations.
	op(ctx context.Context, i int, tr *tracer) error
	// check runs the correctness gates after the measured phase and may add
	// per-layer counters to res.
	check(ctx context.Context, res *result) error
}

// maxUnattributed is the largest share of a traced batch operation's time
// that may fall outside its layer spans.
const maxUnattributed = 0.05

// minOps is the least number of operations a run measures, so that a
// traced run has traced and untraced operations to compare.
const minOps = 4

// runBatch times the set-ups, runs operations until cfg.seconds have
// passed and then the gates. Times are normalised with a calibrator (see
// calib.go). A traced run traces every other pair of operations, so that
// trace.overhead_frac compares operations measured side by side, and
// workloads that alternate two kinds of operation trace both.
func runBatch(ctx context.Context, cfg *config, b batch) (*result, error) {
	res := newResult()
	cal := newCalibrator()
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		cal.measure()
		start := time.Now()
		if err := b.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setup = append(res.setup, time.Since(start).Seconds()*cal.scale())
	}
	runtime.GC()
	if err := resetPeakRSS("self"); err != nil {
		res.header = append(res.header, "peak_rss_mb includes set-up: "+err.Error())
	}
	if cfg.trace {
		res.tracer = newTracer()
	}
	before := readRuntime()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var tr *tracer
		if cfg.trace && i/2%2 == 1 {
			tr = res.tracer
		}
		cal.tick()
		end := tr.beginOp(i)
		start := time.Now()
		err := b.op(ctx, i, tr)
		d := ms(time.Since(start)) * cal.scale()
		end()
		res.ops++
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		if tr != nil {
			res.traced = append(res.traced, d)
		} else {
			res.lat = append(res.lat, d)
		}
	}
	res.gcFrac, res.allocPerOp = readRuntime().since(before, res.ops)
	res.header = append(res.header, cal.String())
	if u := res.tracer.layerMetrics(len(res.traced))["trace.unattributed_frac"]; u > maxUnattributed {
		return nil, fmt.Errorf("%.1f%% of traced operation time is outside the layer spans (limit %.0f%%): the traced decomposition no longer covers the operation",
			100*u, 100*maxUnattributed)
	}
	rss, err := peakRSS("self")
	if err != nil {
		return nil, err
	}
	res.rssMB = rss
	if err := b.check(ctx, res); err != nil {
		return nil, err
	}
	return res, nil
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM) of a
// process ("self" or a pid), so that peakRSS covers only what follows.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSS returns a process's peak resident set (VmHWM) in MiB.
func peakRSS(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/%s/status", pid)
}

// runtimeSample is a reading of the process's GC CPU time, total CPU time
// and allocated bytes.
type runtimeSample [3]metrics.Sample

func readRuntime() *runtimeSample {
	var s runtimeSample
	s[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	s[1].Name = "/cpu/classes/total:cpu-seconds"
	s[2].Name = "/gc/heap/allocs:bytes"
	metrics.Read(s[:])
	return &s
}

// since returns the share of CPU time spent in GC and the MiB allocated per
// operation between two readings.
func (s *runtimeSample) since(before *runtimeSample, ops int) (gcFrac, allocPerOp float64) {
	gc := s[0].Value.Float64() - before[0].Value.Float64()
	total := s[1].Value.Float64() - before[1].Value.Float64()
	if total > 0 {
		gcFrac = gc / total
	}
	alloc := float64(s[2].Value.Uint64() - before[2].Value.Uint64())
	return gcFrac, alloc / float64(ops) / (1 << 20)
}
