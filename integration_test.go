package rdfalign

// Integration tests: end-to-end runs over the synthetic datasets verifying
// the qualitative claims of the paper's evaluation narrative (§5.1–5.3) —
// the claims the figures quantify — through the public API only.

import (
	"strings"
	"testing"
)

// TestEFOQualityClaims verifies §5.1's summary: "very few URIs undergoing
// changes are missed and no URIs are aligned in error", with the documented
// exception of URIs used only in predicate position.
func TestEFOQualityClaims(t *testing.T) {
	d, err := GenerateEFO(EFOConfig{Versions: 10, Scale: 0.02, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	// The hardest pair: the bulk prefix migration between v7 and v8.
	tr := d.GroundTruth(6, 7)
	a, err := alignWith(d.Graphs[6], d.Graphs[7], WithMethod(Overlap))
	if err != nil {
		t.Fatal(err)
	}
	p := Classify(a, tr)
	missRate := float64(p.Missing) / float64(tr.Size())
	if missRate > 0.05 {
		t.Errorf("overlap misses %.1f%% of the migrated classes (want < 5%%): %s",
			100*missRate, p)
	}
	// The only false matches allowed are predicate-position URIs (the
	// §5.1 caveat). Verify each false match is such a URI: it never
	// appears as a subject or object of a non-type triple.
	g1 := d.Graphs[6]
	falseByKind := map[bool]int{}
	g1.Nodes(func(n NodeID) {
		if !g1.IsURI(n) {
			return
		}
		uri := g1.Label(n).Value
		if _, hasTruth := tr.TargetOf(uri); hasTruth {
			return
		}
		if len(a.MatchesOfURI(uri)) == 0 {
			return
		}
		falseByKind[g1.OutDegree(n) == 0]++
	})
	if falseByKind[false] > 0 {
		t.Errorf("%d false matches on URIs with contents (only sink/predicate URIs may misalign)",
			falseByKind[false])
	}
	if falseByKind[true] == 0 {
		t.Log("note: no predicate-only false matches on this pair (paper reports < 15)")
	}
}

// TestGtoPdbNoSharedVocabulary re-verifies the §5.2 setup end to end: with
// per-version prefixes the trivial and deblank alignments align no
// non-literal nodes, while hybrid and overlap recover most of the truth.
func TestGtoPdbNoSharedVocabulary(t *testing.T) {
	d, err := GenerateGtoPdb(GtoPdbConfig{Versions: 2, Scale: 0.005, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := d.Graphs[0], d.Graphs[1]
	for _, m := range []Method{Trivial, Deblank} {
		a, err := alignWith(g1, g2, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		if got := a.AlignedEntityCount(true); got != 0 {
			t.Errorf("%v aligned %d URI entities; the prefix-disjoint setup admits none", m, got)
		}
	}
	tr := d.GroundTruth(0, 1)
	for _, m := range []Method{Hybrid, Overlap} {
		a, err := alignWith(g1, g2, WithMethod(m))
		if err != nil {
			t.Fatal(err)
		}
		p := Classify(a, tr)
		recovered := float64(p.Exact+p.Inclusive) / float64(tr.Size())
		if recovered < 0.75 {
			t.Errorf("%v recovered only %.1f%% of the truth: %s", m, 100*recovered, p)
		}
	}
}

// TestOverlapRefinesHybridEndToEnd: on every consecutive GtoPdb pair the
// overlap alignment recovers strictly more ground truth than hybrid
// (Figure 13/14's summary through the public API).
func TestOverlapRefinesHybridEndToEnd(t *testing.T) {
	d, err := GenerateGtoPdb(GtoPdbConfig{Versions: 4, Scale: 0.004, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v+1 < len(d.Graphs); v++ {
		tr := d.GroundTruth(v, v+1)
		h, err := alignWith(d.Graphs[v], d.Graphs[v+1], WithMethod(Hybrid))
		if err != nil {
			t.Fatal(err)
		}
		o, err := alignWith(d.Graphs[v], d.Graphs[v+1], WithMethod(Overlap))
		if err != nil {
			t.Fatal(err)
		}
		ph := Classify(h, tr)
		po := Classify(o, tr)
		if po.Exact < ph.Exact {
			t.Errorf("pair %d-%d: overlap exact %d < hybrid exact %d", v+1, v+2, po.Exact, ph.Exact)
		}
		if po.Missing > ph.Missing {
			t.Errorf("pair %d-%d: overlap missing %d > hybrid missing %d", v+1, v+2, po.Missing, ph.Missing)
		}
	}
}

// TestContextOptionEndToEnd: the §6 context-aware variant is usable through
// the public API and is stricter than the default.
func TestContextOptionEndToEnd(t *testing.T) {
	g1, g2 := parseFig1(t)
	plain, err := alignWith(g1, g2, WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := alignWith(g1, g2, WithMethod(Hybrid), WithContextual())
	if err != nil {
		t.Fatal(err)
	}
	if ctx.PairCount() > plain.PairCount() {
		t.Errorf("context-aware hybrid aligned more pairs (%d) than plain (%d)",
			ctx.PairCount(), plain.PairCount())
	}
	// ed-uni/uoe still align: same contents and same context (employer
	// of ss).
	if !ctx.Aligned(mustFind(t, g1, "ed-uni"), mustFind(t, g2, "uoe")) {
		t.Error("context-aware hybrid should still align ed-uni with uoe")
	}
}

// TestKeyPredicatesOption: restricting refinement to a key predicate aligns
// records that differ outside the key.
func TestKeyPredicatesOption(t *testing.T) {
	doc1 := `<w> <p> _:r . _:r <key> "K-42" . _:r <note> "old remark" .`
	doc2 := `<w> <p> _:r . _:r <key> "K-42" . _:r <note> "new remark entirely" .`
	g1, err := ParseNTriplesString(strings.ReplaceAll(doc1, ". ", ".\n"), "v1")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseNTriplesString(strings.ReplaceAll(doc2, ". ", ".\n"), "v2")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := alignWith(g1, g2, WithMethod(Deblank))
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := alignWith(g1, g2, WithMethod(Deblank), WithKeyPredicates("key"))
	if err != nil {
		t.Fatal(err)
	}
	b1 := blankOf(t, g1)
	b2 := blankOf(t, g2)
	if plain.Aligned(b1, b2) {
		t.Error("plain deblank must split the records (notes differ)")
	}
	if !keyed.Aligned(b1, b2) {
		t.Error("key-filtered deblank should align the records on their key")
	}
}

func mustFind(t testing.TB, g *Graph, uri string) NodeID {
	t.Helper()
	n, ok := g.FindURI(uri)
	if !ok {
		t.Fatalf("URI %s not found", uri)
	}
	return n
}

func blankOf(t testing.TB, g *Graph) NodeID {
	t.Helper()
	found := NodeID(-1)
	g.Nodes(func(n NodeID) {
		if g.IsBlank(n) {
			found = n
		}
	})
	if found < 0 {
		t.Fatal("no blank node")
	}
	return found
}

// TestDeterministicEndToEnd: two runs over the same generated data produce
// identical alignments (pair-for-pair).
func TestDeterministicEndToEnd(t *testing.T) {
	d, err := GenerateEFO(EFOConfig{Versions: 2, Scale: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []string {
		a, err := alignWith(d.Graphs[0], d.Graphs[1], WithMethod(Overlap))
		if err != nil {
			t.Fatal(err)
		}
		var pairs []string
		a.Pairs(func(n1, n2 NodeID) {
			pairs = append(pairs, d.Graphs[0].Label(n1).String()+"|"+d.Graphs[1].Label(n2).String())
		})
		return pairs
	}
	p1 := run()
	p2 := run()
	if len(p1) != len(p2) {
		t.Fatalf("pair counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pair %d differs: %s vs %s", i, p1[i], p2[i])
		}
	}
}
