package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rdfalign"
)

// daemonBin is the rdfalignd binary TestMain builds for serve-mixed.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "rdfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "rdfalignd")
	out, err := exec.Command("go", "build", "-o", daemonBin, "rdfalign/cmd/rdfalignd").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "build rdfalignd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyConfig runs a workload on inputs small enough for a unit test.
func tinyConfig(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload,
		seed:     7,
		seconds:  300 * time.Millisecond,
		trace:    trace,
		setups:   2,
		sizes: sizes{
			ingestTriples: 2000,
			gtopdbScale:   0.005,
			deltaTriples:  5000,
			serveTriples:  3000,
			serveQPS:      200,
			serveGate:     20,
			deltaGap:      100 * time.Millisecond,
		},
		daemon:   daemonBin,
		traceOut: filepath.Join(t.TempDir(), "spans.json"),
	}
}

// TestWorkloads runs every workload untraced and traced through its gates
// and checks the printed result line: one JSON object naming every metric
// of its kind with its unit.
func TestWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				cfg := tinyConfig(t, name, trace)
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := report(&out, cfg, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(defs) {
					t.Fatalf("result line %+v", line)
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace {
					if _, err := os.Stat(cfg.traceOut); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// TestDigestGateRejectsPerturbedPairs checks that the digest gate fails when
// one aligned pair is dropped or retargeted.
func TestDigestGateRejectsPerturbedPairs(t *testing.T) {
	src, err := rdfalign.ParseNTriplesString(`<a> <p> "x" .
<b> <p> "y" .
<c> <p> "z" .
`, "v1")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := rdfalign.ParseNTriplesString(`<a> <p> "x" .
<b> <p> "y" .
<d> <p> "z" .
`, "v2")
	if err != nil {
		t.Fatal(err)
	}
	al, err := rdfalign.NewAligner(rdfalign.WithMethod(rdfalign.Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	a, err := al.Align(context.Background(), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	want := alignmentDigest(a)
	if err := sameDigest("unperturbed", alignmentDigest(a), want); err != nil {
		t.Fatal(err)
	}
	st := a.EdgeStats()
	perturb := func(edit func(i int, n1, n2 rdfalign.NodeID, f func(n1, n2 rdfalign.NodeID))) digest {
		return pairDigest(src, tgt, func(f func(n1, n2 rdfalign.NodeID)) {
			i := 0
			a.Pairs(func(n1, n2 rdfalign.NodeID) {
				edit(i, n1, n2, f)
				i++
			})
		}, st.Common, st.Union)
	}
	dropped := perturb(func(i int, n1, n2 rdfalign.NodeID, f func(n1, n2 rdfalign.NodeID)) {
		if i != 0 {
			f(n1, n2)
		}
	})
	retargeted := perturb(func(i int, n1, n2 rdfalign.NodeID, f func(n1, n2 rdfalign.NodeID)) {
		if i == 0 {
			n2 = (n2 + 1) % rdfalign.NodeID(tgt.NumNodes())
		}
		f(n1, n2)
	})
	for name, d := range map[string]digest{"dropped": dropped, "retargeted": retargeted} {
		if err := sameDigest(name, d, want); err == nil {
			t.Errorf("%s pair set passed the digest gate", name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}, {90, 3.7}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, math.Inf(1)}, 90); !math.IsInf(got, 1) {
		t.Errorf("percentile with a failed sample = %v, want +Inf", got)
	}
}
