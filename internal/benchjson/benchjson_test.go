package benchjson

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFlattenLaterEntriesWin(t *testing.T) {
	f := &File{Workloads: []Workload{
		{Name: "BenchmarkX", Results: []Result{
			{Bench: "BenchmarkX/full", NsOp: 100},
			{Bench: "BenchmarkX/worklist", NsOp: 50},
		}},
		{Name: "BenchmarkX", Results: []Result{
			{Bench: "BenchmarkX/worklist", NsOp: 40},
			{Bench: "BenchmarkX/worklist-par", NsOp: 30},
		}},
	}}
	flat := f.Flatten()
	if flat["BenchmarkX/full"] != 100 {
		t.Errorf("full = %v, want the earlier entry's 100", flat["BenchmarkX/full"])
	}
	if flat["BenchmarkX/worklist"] != 40 {
		t.Errorf("worklist = %v, want the later entry's 40", flat["BenchmarkX/worklist"])
	}
	if flat["BenchmarkX/worklist-par"] != 30 {
		t.Errorf("worklist-par = %v, want 30", flat["BenchmarkX/worklist-par"])
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkRefine/worklist-8":     "BenchmarkRefine/worklist",
		"BenchmarkRefine/worklist-par-8": "BenchmarkRefine/worklist-par",
		"BenchmarkRefine/worklist":       "BenchmarkRefine/worklist",
		"BenchmarkIntern":                "BenchmarkIntern",
	} {
		if got := NormalizeName(in); got != want {
			t.Errorf("NormalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBenchOutputAndAverage(t *testing.T) {
	out := `goos: linux
goarch: amd64
BenchmarkRefineX/worklist-2         	       5	 100 ns/op	 10 B/op	 1 allocs/op
BenchmarkRefineX/worklist-2         	       5	 300 ns/op
BenchmarkRefineX/full-2             	       5	 1000 ns/op
PASS
`
	results, err := ParseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}
	med := Median(results)
	if med["BenchmarkRefineX/worklist"] != 200 {
		t.Errorf("median worklist = %v, want 200", med["BenchmarkRefineX/worklist"])
	}
	if med["BenchmarkRefineX/full"] != 1000 {
		t.Errorf("full = %v, want 1000", med["BenchmarkRefineX/full"])
	}
}

func TestMedianResistsOutliers(t *testing.T) {
	med := Median([]Result{
		{Bench: "BenchmarkX", NsOp: 100},
		{Bench: "BenchmarkX", NsOp: 110},
		{Bench: "BenchmarkX", NsOp: 9000}, // scheduler hiccup
	})
	if med["BenchmarkX"] != 110 {
		t.Errorf("median = %v, want 110", med["BenchmarkX"])
	}
	if even := Median([]Result{{Bench: "BenchmarkY", NsOp: 100}, {Bench: "BenchmarkY", NsOp: 200}})["BenchmarkY"]; even != 150 {
		t.Errorf("even-count median = %v, want 150", even)
	}
}

func TestReadFileBaseline(t *testing.T) {
	// The checked-in baseline must stay parseable by the shared schema.
	f, err := ReadFile(filepath.Join("..", "..", "BENCH_refine.json"))
	if err != nil {
		t.Fatal(err)
	}
	flat := f.Flatten()
	if len(flat) == 0 {
		t.Fatal("baseline flattened to nothing")
	}
	if _, ok := flat["BenchmarkRefineDeblankWideDeep"]; !ok {
		t.Error("baseline lacks BenchmarkRefineDeblankWideDeep")
	}
	var sb strings.Builder
	if err := WriteBenchText(&sb, flat); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "BenchmarkRefineDeblankWideDeep 1 ") {
		t.Errorf("bench text missing expected line:\n%s", sb.String())
	}
}

func TestMachineFieldsRoundTrip(t *testing.T) {
	f := &File{
		Description: "round trip",
		Workloads:   []Workload{{Name: "BenchmarkX", Results: []Result{{Bench: "BenchmarkX/a", NsOp: 12}}}},
	}
	f.StampMachine()
	if f.NProc < 1 || f.GOMAXPROCS < 1 || f.Go == "" {
		t.Fatalf("StampMachine left fields empty: %+v", f)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("round trip changed the document:\n got %+v\nwant %+v", got, f)
	}

	var sb strings.Builder
	if err := got.WriteConfig(&sb); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("nproc: %d\ngomaxprocs: %d\ngo: %s\n", f.NProc, f.GOMAXPROCS, f.Go)
	if sb.String() != want {
		t.Errorf("config lines = %q, want %q", sb.String(), want)
	}
	sb.Reset()
	if err := (&File{}).WriteConfig(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("unrecorded fields rendered as %q (err %v), want nothing", sb.String(), err)
	}
}
