// Package benchjson defines the benchmark-baseline JSON schema shared by
// the checked-in BENCH_refine.json baseline, the CI regression gate
// (cmd/benchgate) and cmd/benchfig's -json output, so locally recorded and
// CI-measured numbers are directly comparable — one schema, one parser,
// one flattening into the Go benchmark text format benchstat consumes.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// File is the top-level baseline document.
type File struct {
	Description string `json:"description"`
	Date        string `json:"date,omitempty"`
	CPU         string `json:"cpu,omitempty"`
	// NProc, GOMAXPROCS and Go describe the machine the numbers were
	// measured on: logical CPUs, the Go scheduler's processor limit and
	// the toolchain version (see StampMachine).
	NProc      int        `json:"nproc,omitempty"`
	GOMAXPROCS int        `json:"gomaxprocs,omitempty"`
	Go         string     `json:"go,omitempty"`
	Benchtime  string     `json:"benchtime,omitempty"`
	Workloads  []Workload `json:"workloads"`
}

// StampMachine records the running process's machine fields: the logical
// CPU count, GOMAXPROCS and the Go version.
func (f *File) StampMachine() {
	f.NProc = runtime.NumCPU()
	f.GOMAXPROCS = runtime.GOMAXPROCS(0)
	f.Go = runtime.Version()
}

// WriteFile saves the document as indented JSON.
func (f *File) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteConfig renders the recorded machine fields as configuration lines
// of the Go benchmark text format ("nproc: 2"), which benchstat prints
// above its tables. Fields the document does not record are skipped.
func (f *File) WriteConfig(w io.Writer) error {
	var lines []string
	if f.NProc > 0 {
		lines = append(lines, fmt.Sprintf("nproc: %d", f.NProc))
	}
	if f.GOMAXPROCS > 0 {
		lines = append(lines, fmt.Sprintf("gomaxprocs: %d", f.GOMAXPROCS))
	}
	if f.Go != "" {
		lines = append(lines, "go: "+f.Go)
	}
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// Workload is one benchmark workload: one result per benchmark name
// exactly as `go test -bench` reports it (minus the -GOMAXPROCS suffix).
// When several workload entries mention the same benchmark name, the
// later entry wins — appended baselines supersede historical ones.
type Workload struct {
	Name    string   `json:"name"`
	Note    string   `json:"note,omitempty"`
	Results []Result `json:"results,omitempty"`
}

// Result is one measured configuration of a workload.
type Result struct {
	Bench string  `json:"bench"`
	NsOp  float64 `json:"ns_op"`
}

// ReadFile loads a baseline document.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return &f, nil
}

// Flatten resolves the document into one ns/op value per benchmark name:
// Results entries are taken verbatim, and later workloads override earlier
// ones per benchmark name.
func (f *File) Flatten() map[string]float64 {
	out := make(map[string]float64)
	for _, w := range f.Workloads {
		for _, r := range w.Results {
			if r.NsOp > 0 {
				out[r.Bench] = r.NsOp
			}
		}
	}
	return out
}

// WriteBenchText renders a flattened baseline in the Go benchmark text
// format benchstat consumes, in sorted name order.
func WriteBenchText(w io.Writer, flat map[string]float64) error {
	names := make([]string, 0, len(flat))
	for n := range flat {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s 1 %.0f ns/op\n", n, flat[n]); err != nil {
			return err
		}
	}
	return nil
}

// procsSuffix matches the trailing -GOMAXPROCS decoration of benchmark
// names in `go test -bench` output (e.g. "BenchmarkX/worklist-8").
var procsSuffix = regexp.MustCompile(`-\d+$`)

// NormalizeName strips the -GOMAXPROCS suffix so results from machines
// with different core counts key identically.
func NormalizeName(name string) string {
	return procsSuffix.ReplaceAllString(name, "")
}

// ParseBenchOutput reads `go test -bench` output and returns every
// measured (benchmark, ns/op) line with normalized names, in input order.
// Repeated names (from -count) are returned repeatedly; use Median to
// collapse them.
func ParseBenchOutput(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		for i := 2; i < len(fields); i++ {
			if fields[i] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", line, err)
			}
			out = append(out, Result{Bench: NormalizeName(fields[0]), NsOp: v})
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Median collapses repeated benchmark names to their median ns/op — the
// aggregation the CI gate uses, since sub-millisecond benchmarks at small
// -benchtime pick up scheduler-noise outliers that a mean would let
// dominate.
func Median(results []Result) map[string]float64 {
	byName := make(map[string][]float64)
	for _, r := range results {
		byName[r.Bench] = append(byName[r.Bench], r.NsOp)
	}
	out := make(map[string]float64, len(byName))
	for n, vs := range byName {
		sort.Float64s(vs)
		if len(vs)%2 == 1 {
			out[n] = vs[len(vs)/2]
		} else {
			out[n] = (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
		}
	}
	return out
}
