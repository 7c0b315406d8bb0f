package rdfalign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdfalign/internal/archive"
	"rdfalign/internal/similarity"
)

var allMethods = []Method{Trivial, Deblank, Hybrid, Overlap, SigmaEdit}

// TestAlignerPreCancelledContext: a context cancelled before Align is
// called aborts every method before any work starts.
func TestAlignerPreCancelledContext(t *testing.T) {
	g1, g2 := parseFig1(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range allMethods {
		t.Run(m.String(), func(t *testing.T) {
			al, err := NewAligner(WithMethod(m))
			if err != nil {
				t.Fatal(err)
			}
			a, err := al.Align(ctx, g1, g2)
			if a != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("Align = %v, %v; want nil, context.Canceled", a, err)
			}
		})
	}
}

// TestAlignerExpiredDeadline: an already-expired deadline surfaces as
// context.DeadlineExceeded from every method.
func TestAlignerExpiredDeadline(t *testing.T) {
	g1, g2 := parseFig1(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, m := range allMethods {
		al, err := NewAligner(WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := al.Align(ctx, g1, g2); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", m, err)
		}
	}
}

// cancelOnStage returns a context plus an option cancelling it from the
// first progress event of the given stage — deterministic mid-run
// cancellation without timing assumptions.
func cancelOnStage(stage string) (context.Context, Option) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, WithProgress(func(p Progress) {
		if p.Stage == stage {
			cancel()
		}
	})
}

// TestAlignerCancelDuringOverlap: cancelling mid-run (from inside a
// propagation round of Algorithm 2) aborts the Overlap loop with ctx.Err().
func TestAlignerCancelDuringOverlap(t *testing.T) {
	g1, g2 := parseFig1(t)
	ctx, progress := cancelOnStage("propagate")
	al, err := NewAligner(WithMethod(Overlap), progress)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.Align(ctx, g1, g2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestAlignerCancelDuringSigmaEdit: cancelling mid-run (from inside a σEdit
// propagation round) aborts the distance fixpoint with ctx.Err().
func TestAlignerCancelDuringSigmaEdit(t *testing.T) {
	g1, g2 := parseFig1(t)
	ctx, progress := cancelOnStage("sigmaedit")
	al, err := NewAligner(WithMethod(SigmaEdit), progress)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.Align(ctx, g1, g2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestNewAlignerValidation: bad configurations fail at construction.
func TestNewAlignerValidation(t *testing.T) {
	if _, err := NewAligner(WithTheta(1.5)); err == nil {
		t.Error("theta 1.5 accepted")
	}
	if _, err := NewAligner(WithTheta(-0.1)); err == nil {
		t.Error("theta -0.1 accepted")
	}
	if _, err := NewAligner(WithMethod(Method(99))); err == nil {
		t.Error("unknown method accepted")
	}
	if al, err := NewAligner(); err != nil || al == nil {
		t.Errorf("zero-option aligner: %v, %v", al, err)
	}
}

// TestThetaValidationUnified: NewAligner and similarity.OverlapAlign accept
// the same θ range (0, 1], treat zero as "use the default" identically, and
// reject out-of-range values with the same wording — the layers used to
// disagree on [0, 1] vs (0, 1] and on whether θ = 0 was an error.
func TestThetaValidationUnified(t *testing.T) {
	g1, g2 := parseFig1(t)
	for _, bad := range []float64{-0.1, 1.5} {
		_, alignerErr := NewAligner(WithTheta(bad))
		if alignerErr == nil {
			t.Fatalf("NewAligner accepted theta %v", bad)
		}
		if want := "outside (0, 1]"; !strings.Contains(alignerErr.Error(), want) {
			t.Errorf("NewAligner(theta=%v) error %q does not name the accepted range %q",
				bad, alignerErr, want)
		}
		// The aligner reports the similarity layer's message verbatim
		// behind its package prefix, so the layers cannot drift apart.
		if want := "rdfalign: " + similarity.ValidateTheta(bad).Error(); alignerErr.Error() != want {
			t.Errorf("NewAligner(theta=%v) error %q, want %q", bad, alignerErr, want)
		}
	}
	// θ = 0 selects the default at both layers rather than erroring.
	for _, m := range []Method{Overlap, SigmaEdit} {
		a, err := alignWith(g1, g2, WithMethod(m), WithTheta(0))
		if err != nil {
			t.Fatalf("%s: theta 0 rejected: %v", m, err)
		}
		if a.Theta != 0.65 {
			t.Errorf("%s: theta 0 resolved to %v, want the 0.65 default", m, a.Theta)
		}
	}
}

// pairSet collects an alignment's pairs for comparison.
func pairSet(a *Alignment) map[[2]NodeID]bool {
	out := map[[2]NodeID]bool{}
	a.Pairs(func(n1, n2 NodeID) { out[[2]NodeID{n1, n2}] = true })
	return out
}

// samePairs fails the test if two alignments disagree on any pair.
func samePairs(t *testing.T, want, got *Alignment) {
	t.Helper()
	ws, gs := pairSet(want), pairSet(got)
	if len(ws) != len(gs) {
		t.Fatalf("pair counts differ: want %d, got %d", len(ws), len(gs))
	}
	for p := range ws {
		if !gs[p] {
			t.Fatalf("pair %v missing", p)
		}
	}
}

// TestOptionEquivalence: every functional-option configuration aligns the
// §5 generator datasets identically whether it configures a fresh session
// or is layered onto a default one with Aligner.With.
func TestOptionEquivalence(t *testing.T) {
	efo, err := GenerateEFO(EFOConfig{Versions: 4, Scale: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gtopdb, err := GenerateGtoPdb(GtoPdbConfig{Versions: 3, Scale: 0.004, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewAligner()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		g1, g2 *Graph
		opts   []Option
	}{
		{"efo/trivial", efo.Graphs[0], efo.Graphs[1], []Option{WithMethod(Trivial)}},
		{"efo/hybrid", efo.Graphs[2], efo.Graphs[3], []Option{WithMethod(Hybrid)}},
		{"efo/overlap", efo.Graphs[2], efo.Graphs[3], []Option{WithMethod(Overlap), WithTheta(0.5)}},
		{"efo/hybrid-context", efo.Graphs[0], efo.Graphs[1], []Option{WithMethod(Hybrid), WithContextual()}},
		{"efo/deblank-adaptive", efo.Graphs[0], efo.Graphs[1], []Option{WithMethod(Deblank), WithAdaptive()}},
		{"gtopdb/overlap", gtopdb.Graphs[0], gtopdb.Graphs[1], []Option{WithMethod(Overlap)}},
		{"gtopdb/hybrid-keys", gtopdb.Graphs[0], gtopdb.Graphs[1],
			[]Option{WithMethod(Hybrid), WithKeyPredicates("http://example.org/gtopdb/ligand#name")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := alignWith(tc.g1, tc.g2, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			al, err := base.With(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			derived, err := al.Align(context.Background(), tc.g1, tc.g2)
			if err != nil {
				t.Fatal(err)
			}
			samePairs(t, fresh, derived)
			if fresh.Method != derived.Method || fresh.Theta != derived.Theta {
				t.Errorf("echoed config differs: fresh %v/%v, derived %v/%v",
					fresh.Method, fresh.Theta, derived.Method, derived.Theta)
			}
		})
	}
}

// TestAlignerParallelismEquivalence: WithParallelism leaves a Hybrid
// alignment identical to the sequential one.
func TestAlignerParallelismEquivalence(t *testing.T) {
	d, err := GenerateEFO(EFOConfig{Versions: 8, Scale: 0.02, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := d.Graphs[6], d.Graphs[7] // the bulk prefix migration pair
	seq, err := alignWith(g1, g2, WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	al, err := NewAligner(WithMethod(Hybrid), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	par, err := al.Align(context.Background(), g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, seq, par)
}

// conformRelation checks the Relation contract on every source/target pair:
// Pairs, Aligned and MatchesOf agree; distances stay in [0, 1]; aligned
// pairs are within the threshold; Unaligned and the entity counts are
// well-formed.
func conformRelation(t *testing.T, a *Alignment, g1, g2 *Graph) {
	t.Helper()
	rel := a.Relation()
	if rel == nil {
		t.Fatal("Relation() = nil")
	}
	pairs := map[[2]NodeID]bool{}
	rel.Pairs(func(n1, n2 NodeID) { pairs[[2]NodeID{n1, n2}] = true })
	for i := 0; i < g1.NumNodes(); i++ {
		n1 := NodeID(i)
		matches := map[NodeID]bool{}
		for _, m := range rel.MatchesOf(n1) {
			matches[m] = true
		}
		for j := 0; j < g2.NumNodes(); j++ {
			n2 := NodeID(j)
			aligned := rel.Aligned(n1, n2)
			if aligned != pairs[[2]NodeID{n1, n2}] {
				t.Fatalf("Aligned(%d,%d)=%v disagrees with Pairs", n1, n2, aligned)
			}
			if aligned != matches[n2] {
				t.Fatalf("Aligned(%d,%d)=%v disagrees with MatchesOf", n1, n2, aligned)
			}
			d := rel.Distance(n1, n2)
			if d < 0 || d > 1 {
				t.Fatalf("Distance(%d,%d) = %v outside [0,1]", n1, n2, d)
			}
			if aligned && d > a.Theta {
				t.Fatalf("aligned pair (%d,%d) at distance %v > theta %v", n1, n2, d, a.Theta)
			}
		}
	}
	src, tgt := rel.Unaligned()
	for _, n := range src {
		if int(n) < 0 || int(n) >= g1.NumNodes() {
			t.Fatalf("unaligned source id %d out of range", n)
		}
	}
	for _, n := range tgt {
		if int(n) < 0 || int(n) >= g2.NumNodes() {
			t.Fatalf("unaligned target id %d out of range", n)
		}
	}
	all, uris := rel.AlignedEntityCount(false), rel.AlignedEntityCount(true)
	if uris > all {
		t.Fatalf("AlignedEntityCount: URI-only %d exceeds total %d", uris, all)
	}
}

// TestRelationConformance runs the contract against both implementations:
// partition-backed (plain via Hybrid, weighted via Overlap) and
// σEdit-backed.
func TestRelationConformance(t *testing.T) {
	g1, g2 := parseFig1(t)
	for _, m := range []Method{Hybrid, Overlap, SigmaEdit} {
		t.Run(m.String(), func(t *testing.T) {
			a, err := alignWith(g1, g2, WithMethod(m))
			if err != nil {
				t.Fatal(err)
			}
			conformRelation(t, a, g1, g2)
		})
	}
}

// TestAlignerProgressStages: the progress hook observes the refinement and
// similarity stages with 1-based round numbers.
func TestAlignerProgressStages(t *testing.T) {
	g1, g2 := parseFig1(t)
	rounds := map[string]int{}
	al, err := NewAligner(WithMethod(Overlap), WithProgress(func(p Progress) {
		if p.Round < 1 {
			t.Errorf("stage %s reported round %d", p.Stage, p.Round)
		}
		rounds[p.Stage]++
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.Align(context.Background(), g1, g2); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"propagate", "overlap"} {
		if rounds[stage] == 0 {
			t.Errorf("no %q progress events (got %v)", stage, rounds)
		}
	}
}

// TestAlignerBuildArchive: the session archive build reports one
// per-version event and honours cancellation.
func TestAlignerBuildArchive(t *testing.T) {
	d, err := GenerateEFO(EFOConfig{Versions: 4, Scale: 0.01, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var versions []string
	al, err := NewAligner(WithMethod(Hybrid), WithProgress(func(p Progress) {
		if p.Stage == "archive" {
			versions = append(versions, fmt.Sprintf("%d/%d", p.Round, p.Total))
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.BuildArchive(context.Background(), d.Graphs); err != nil {
		t.Fatal(err)
	}
	if want := []string{"1/4", "2/4", "3/4", "4/4"}; fmt.Sprint(versions) != fmt.Sprint(want) {
		t.Errorf("per-version progress = %v, want %v", versions, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := al.BuildArchive(ctx, d.Graphs); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled BuildArchive err = %v, want context.Canceled", err)
	}
}

// TestBuildArchiveMatchesSessionAlign: BuildArchive and AppendVersion align
// every consecutive pair exactly as the session's Align does — Overlap when
// the method is Overlap, Hybrid otherwise — with the session's extensions,
// depth bound, parallelism and ambiguity resolution. Each archive equals one
// that archive.New and Append record from Aligner.Align's partitions.
func TestBuildArchiveMatchesSessionAlign(t *testing.T) {
	const key = "http://www.w3.org/2000/01/rdf-schema#label"
	efo, err := GenerateEFO(EFOConfig{Versions: 4, Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gto, err := GenerateGtoPdb(GtoPdbConfig{Versions: 3, Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Blank chains, on which a one- or two-round bound changes the archive.
	var chain []*Graph
	for i, doc := range []string{chainNT(12), chainNT(12) + "<http://x/a> <http://x/p> \"v\" .\n", chainNT(13)} {
		g, err := ParseNTriplesString(doc, fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, g)
	}
	sessions := []struct {
		name string
		opts []Option
	}{
		{"hybrid", []Option{WithMethod(Hybrid)}},
		{"overlap", []Option{WithMethod(Overlap)}},
		{"overlap-k1", []Option{WithMethod(Overlap), WithMaxDepth(1)}},
		{"overlap-k2", []Option{WithMethod(Overlap), WithMaxDepth(2)}},
		{"overlap-resolve-par4", []Option{WithMethod(Overlap), WithResolveAmbiguous(), WithParallelism(4)}},
		{"hybrid-extensions", []Option{WithMethod(Hybrid), WithContextual(), WithAdaptive(), WithKeyPredicates(key)}},
		{"sigmaedit", []Option{WithMethod(SigmaEdit)}},
	}
	ctx := context.Background()
	for _, ds := range []struct {
		name   string
		graphs []*Graph
	}{{"efo", efo.Graphs}, {"gtopdb", gto.Graphs}, {"chain", chain}} {
		for _, s := range sessions {
			t.Run(ds.name+"/"+s.name, func(t *testing.T) {
				al, err := NewAligner(s.opts...)
				if err != nil {
					t.Fatal(err)
				}
				last := len(ds.graphs) - 1
				got, err := al.BuildArchive(ctx, ds.graphs[:last])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := al.AppendVersion(ctx, got, ds.graphs[last], nil); err != nil {
					t.Fatal(err)
				}

				ref := al
				if m := al.Method(); m != Overlap && m != Hybrid {
					if ref, err = al.With(WithMethod(Hybrid)); err != nil {
						t.Fatal(err)
					}
				}
				want := archive.New(ds.graphs[0])
				for _, g := range ds.graphs[1:] {
					a, err := ref.Align(ctx, want.LatestGraph(), g)
					if err != nil {
						t.Fatal(err)
					}
					if err := want.Append(a.c, a.part, al.cfg.resolveAmbiguous); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(got.Raw(), want.Raw()) {
					t.Errorf("session archive differs from archive.Append over Aligner.Align:\n got %s\nwant %s",
						got.GatherStats(), want.GatherStats())
				}
			})
		}
	}
}

// TestAppendAlignmentMatchesAppendVersion: AppendAlignment records the
// same archive as AppendVersion of the alignment's target, for every method
// and for alignments it cannot reuse — one advanced by ApplyDelta, one over
// an older source, one from another session. A fresh Hybrid, Overlap or
// SigmaEdit alignment over the newest archived graph is recorded without
// a refinement round; every other case aligns the tail pair again.
func TestAppendAlignmentMatchesAppendVersion(t *testing.T) {
	gto, err := GenerateGtoPdb(GtoPdbConfig{Versions: 3, Scale: 0.005, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g0, g1, g2 := gto.Graphs[0], gto.Graphs[1], gto.Graphs[2]
	edit, err := ParseEditScriptString("+ <http://x/s> <http://x/p> \"v\" .\n")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, m := range allMethods {
		var refines int
		al, err := NewAligner(WithMethod(m), WithResolveAmbiguous(), WithProgress(func(p Progress) {
			if p.Stage == "refine" {
				refines++
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		other, err := al.With()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := al.Align(ctx, g1, g2)
		if err != nil {
			t.Fatal(err)
		}
		maintained, err := al.Align(ctx, g1, g1)
		if err != nil {
			t.Fatal(err)
		}
		if maintained, err = maintained.ApplyDelta(ctx, edit); err != nil {
			t.Fatal(err)
		}
		older, err := al.Align(ctx, g0, g2)
		if err != nil {
			t.Fatal(err)
		}
		foreign, err := other.Align(ctx, g1, g2)
		if err != nil {
			t.Fatal(err)
		}
		reusable := m == Hybrid || m == Overlap || m == SigmaEdit
		for _, tc := range []struct {
			name  string
			a     *Alignment
			reuse bool
		}{{"fresh", fresh, reusable}, {"maintained", maintained, false}, {"older", older, false}, {"foreign", foreign, false}} {
			base, err := al.BuildArchive(ctx, []*Graph{g0, g1})
			if err != nil {
				t.Fatal(err)
			}
			want, got := base.Clone(), base.Clone()
			if _, err := al.AppendVersion(ctx, want, tc.a.Target(), nil); err != nil {
				t.Fatal(err)
			}
			refines = 0
			if err := al.AppendAlignment(ctx, got, tc.a); err != nil {
				t.Fatal(err)
			}
			if aligned := refines > 0; aligned == tc.reuse {
				t.Errorf("%v/%s: %d refinement rounds, want aligning %v", m, tc.name, refines, !tc.reuse)
			}
			if !reflect.DeepEqual(got.Raw(), want.Raw()) {
				t.Errorf("%v/%s: AppendAlignment archive differs from AppendVersion:\n got %s\nwant %s",
					m, tc.name, got.GatherStats(), want.GatherStats())
			}
		}
	}
}

// TestAppendVersionScript: with g nil, AppendVersion derives the new version
// by applying the edit script to the newest archived graph, equivalently to
// appending the edited graph directly; a script that does not apply, or
// neither a graph nor a script, leaves the archive unchanged.
func TestAppendVersionScript(t *testing.T) {
	g1, err := ParseNTriplesString("<http://e/a> <http://e/p> \"x\" .\n<http://e/a> <http://e/p> <http://e/b> .\n", "v1")
	if err != nil {
		t.Fatal(err)
	}
	script, err := ParseEditScriptString(`- <http://e/a> <http://e/p> "x" .
+ <http://e/a> <http://e/p> "y" .
+ <http://e/c> <http://e/p> <http://e/b> .
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	al, err := NewAligner(WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	byScript, err := al.BuildArchive(ctx, []*Graph{g1})
	if err != nil {
		t.Fatal(err)
	}
	before := byScript.Raw()
	bad, err := ParseEditScriptString("- <http://absent/node> <http://absent/p> \"absent\" .\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := al.AppendVersion(ctx, byScript, nil, bad); err == nil {
		t.Fatal("delete of an absent triple accepted")
	}
	if _, err := al.AppendVersion(ctx, byScript, nil, nil); err == nil {
		t.Fatal("append with neither graph nor script accepted")
	}
	if !reflect.DeepEqual(byScript.Raw(), before) {
		t.Fatal("failed appends changed the archive")
	}
	g2, err := al.AppendVersion(ctx, byScript, nil, script)
	if err != nil {
		t.Fatal(err)
	}
	want, err := al.BuildArchive(ctx, []*Graph{g1, g2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byScript.Raw(), want.Raw()) {
		t.Fatalf("script append differs from BuildArchive:\n got %s\nwant %s", byScript.GatherStats(), want.GatherStats())
	}
}

// TestWithThetaZeroMeansDefault: WithTheta(0) selects the 0.65 default for
// every method, exactly like leaving θ unset.
func TestWithThetaZeroMeansDefault(t *testing.T) {
	g1, g2 := parseFig1(t)
	for _, m := range []Method{Overlap, SigmaEdit} {
		unset, err := alignWith(g1, g2, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		got, err := alignWith(g1, g2, WithMethod(m), WithTheta(0))
		if err != nil {
			t.Fatal(err)
		}
		if got.Theta != 0.65 || unset.Theta != 0.65 {
			t.Errorf("%s: Theta echoed as %v (unset %v), want 0.65", m, got.Theta, unset.Theta)
		}
		samePairs(t, unset, got)
	}
}
