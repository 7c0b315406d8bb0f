package similarity

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/strdist"
)

func TestOverlapAndDiffMeasures(t *testing.T) {
	if Overlap([]string{}, []string{}) != 1 {
		t.Error("overlap(∅, ∅) = 1 by convention")
	}
	if Diff([]string{}, []string{}) != 0 {
		t.Error("diff(∅, ∅) = 0 by convention")
	}
	if got := Overlap([]string{"a", "b"}, []string{"b", "c"}); got != 1.0/3.0 {
		t.Errorf("overlap = %v, want 1/3", got)
	}
	if got := Overlap([]string{"a", "a", "b"}, []string{"b", "a"}); got != 1 {
		t.Errorf("overlap with duplicates = %v, want 1 (set semantics)", got)
	}
	if Overlap([]string{"x"}, []string{}) != 0 {
		t.Error("overlap against empty non-empty = 0")
	}
}

func TestOverlapDiffComplementProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		o := Overlap(a, b)
		d := Diff(a, b)
		return o >= 0 && o <= 1 && math.Abs(o+d-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSplit(t *testing.T) {
	got := Split("Experimental Factor Ontology, v2.34 (EFO)")
	want := []string{"Experimental", "Factor", "Ontology", "v2", "34", "EFO"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Split = %v, want %v", got, want)
	}
	if len(Split("...!!!")) != 0 {
		t.Error("Split of punctuation should be empty")
	}
}

func TestPrefixLenLossless(t *testing.T) {
	// A prefix of p objects is lossless iff the best candidate sharing
	// none of them — b = the other k−p objects, union k — fails the
	// screen, in the screen's own float arithmetic. prefixLen must return
	// the smallest such p.
	lossless := func(k, p int, theta float64) bool {
		return float64(k-p)/float64(k) < theta
	}
	thetas := []float64{0.05, 0.1, 0.2, 0.25, 0.3, 0.35, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.9, 0.95, 1.0}
	for k := 1; k <= 40; k++ {
		for _, theta := range thetas {
			want := 0
			for !lossless(k, want, theta) {
				want++
			}
			if got := prefixLen(k, theta); got != want {
				t.Errorf("prefixLen(%d, %v) = %d, want the minimal lossless %d", k, theta, got, want)
			}
		}
	}
	// θ·k integral: the pair at exactly θ must stay reachable. At θ = 0.9,
	// k = 10, ⌊(1−θ)k⌋+1 rounds down to 1 and would lose it.
	for _, c := range []struct {
		k     int
		theta float64
		want  int
	}{{20, 0.65, 8}, {10, 0.9, 2}, {4, 0.75, 2}, {40, 0.95, 3}, {7, 1, 1}} {
		if got := prefixLen(c.k, c.theta); got != c.want {
			t.Errorf("prefixLen(%d, %v) = %d, want %d", c.k, c.theta, got, c.want)
		}
	}
}

// wordGraphPair builds two single-node-per-literal graphs whose literal
// labels are the given strings; used to drive OverlapMatch through real
// node IDs.
func literalNodes(t testing.TB, labels1, labels2 []string) (*rdf.Combined, []rdf.NodeID, []rdf.NodeID) {
	t.Helper()
	b1 := rdf.NewBuilder("om-g1")
	s1 := b1.URI("root1")
	var n1 []rdf.NodeID
	for _, l := range labels1 {
		n := b1.Literal(l)
		b1.TripleURI(s1, "p", n)
		n1 = append(n1, n)
	}
	g1, err := b1.Graph()
	if err != nil {
		t.Fatal(err)
	}
	b2 := rdf.NewBuilder("om-g2")
	s2 := b2.URI("root2")
	var n2 []rdf.NodeID
	for _, l := range labels2 {
		n := b2.Literal(l)
		b2.TripleURI(s2, "p", n)
		n2 = append(n2, n)
	}
	g2, err := b2.Graph()
	if err != nil {
		t.Fatal(err)
	}
	c := rdf.Union(g1, g2)
	a := make([]rdf.NodeID, len(n1))
	for i, n := range n1 {
		a[i] = c.FromSource(n)
	}
	b := make([]rdf.NodeID, len(n2))
	for i, n := range n2 {
		b[i] = c.FromTarget(n)
	}
	return c, a, b
}

func TestOverlapMatchFindsEditedLiterals(t *testing.T) {
	c, a, b := literalNodes(t,
		[]string{"experimental factor ontology", "guide to pharmacology", "unrelated thing"},
		[]string{"experimental factor ontologies", "the guide to pharmacology", "different altogether"},
	)
	theta := 0.5
	h := matchSeq(a, b, theta,
		func(n rdf.NodeID) []string { return Split(c.Label(n).Value) },
		func(n, m rdf.NodeID) (float64, bool) {
			return strdist.WithinThreshold(c.Label(n).Value, c.Label(m).Value, theta)
		})
	if len(h.Edges) != 2 {
		t.Fatalf("expected 2 matched pairs, got %d: %+v", len(h.Edges), h.Edges)
	}
	for _, e := range h.Edges {
		if e.D > theta {
			t.Errorf("edge distance %v > θ", e.D)
		}
		v1 := c.Label(e.A).Value
		v2 := c.Label(e.B).Value
		if !(v1 == "experimental factor ontology" && v2 == "experimental factor ontologies") &&
			!(v1 == "guide to pharmacology" && v2 == "the guide to pharmacology") {
			t.Errorf("unexpected pair %q ↔ %q", v1, v2)
		}
	}
}

// TestOverlapMatchInclusiveThreshold pins the unified Align_θ convention at
// the boundary: the pair below sits at word overlap exactly 2/4 = θ and at
// normalised edit distance exactly 6/12 = θ, so it passes both the
// candidate screen (overlap ≥ θ) and the inclusive distance verification
// (σ ≤ θ, §4.1). Under the old strict-< verification the pair was silently
// dropped while σEdit's Align_θ accepted it.
func TestOverlapMatchInclusiveThreshold(t *testing.T) {
	c, a, b := literalNodes(t, []string{"aa bb cccccc"}, []string{"aa bb dddddd"})
	theta := 0.5
	h := matchSeq(a, b, theta,
		func(n rdf.NodeID) []string { return Split(c.Label(n).Value) },
		func(n, m rdf.NodeID) (float64, bool) {
			return strdist.WithinThreshold(c.Label(n).Value, c.Label(m).Value, theta)
		})
	if len(h.Edges) != 1 || h.Edges[0].D != theta {
		t.Fatalf("pair at exactly θ: edges = %+v, want one edge at D = %v", h.Edges, theta)
	}
}

// TestOverlapMatchLossless compares the heuristic against the brute-force
// all-pairs filter on random word sets: the prefix filter must not lose any
// pair with overlap ≥ θ and σ ≤ θ.
func TestOverlapMatchLossless(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func(n int) []string {
			out := make([]string, n)
			for i := range out {
				k := 1 + r.Intn(4)
				s := ""
				for j := 0; j < k; j++ {
					if j > 0 {
						s += " "
					}
					s += words[r.Intn(len(words))]
				}
				out[i] = s
			}
			return out
		}
		l1 := mk(1 + r.Intn(6))
		l2 := mk(1 + r.Intn(6))
		// Deduplicate labels (literal nodes are unique per graph).
		var seen seenSet[string]
		l1 = seen.appendNew(l1[:0], l1)
		l2 = seen.appendNew(l2[:0], l2)
		theta := []float64{0.35, 0.5, 0.65, 0.8}[r.Intn(4)]
		c, a, b := literalNodes(t, l1, l2)
		char := func(n rdf.NodeID) []string { return Split(c.Label(n).Value) }
		dist := func(n, m rdf.NodeID) (float64, bool) {
			return strdist.WithinThreshold(c.Label(n).Value, c.Label(m).Value, theta)
		}
		h := matchSeq(a, b, theta, char, dist)
		got := map[[2]rdf.NodeID]bool{}
		for _, e := range h.Edges {
			got[[2]rdf.NodeID{e.A, e.B}] = true
		}
		// Brute force.
		want := map[[2]rdf.NodeID]bool{}
		for _, n := range a {
			for _, m := range b {
				if Overlap(char(n), char(m)) < theta {
					continue
				}
				if _, ok := dist(n, m); ok {
					want[[2]rdf.NodeID{n, m}] = true
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d θ=%v: got %v want %v (labels %v | %v)", seed, theta, got, want, l1, l2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	// Synthetic characterisations of up to 40 objects. Every B node takes
	// about ⌈θk⌉ of some A node's objects plus a few outside ones, so many
	// pairs sit at or next to the threshold, and dist accepts every pair:
	// the edges are exactly the pairs the screen admits.
	thetas := []float64{0.25, 0.5, 0.6, 0.65, 0.75, 0.8, 0.9, 0.95, 1}
	synth := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		theta := thetas[r.Intn(len(thetas))]
		chars := map[rdf.NodeID][]int{}
		var a, b []rdf.NodeID
		for i := 0; i < 1+r.Intn(4); i++ {
			n := rdf.NodeID(i)
			chars[n] = r.Perm(80)[:1+r.Intn(40)]
			a = append(a, n)
		}
		for j := 0; j < 1+r.Intn(16); j++ {
			m := rdf.NodeID(1000 + j)
			src := chars[a[r.Intn(len(a))]]
			inter := min(max(int(math.Ceil(theta*float64(len(src))))+r.Intn(3)-1, 0), len(src))
			var objs []int
			for _, i := range r.Perm(len(src))[:inter] {
				objs = append(objs, src[i])
			}
			for e := r.Intn(3); e > 0; e-- {
				objs = append(objs, 80+r.Intn(40))
			}
			chars[m] = objs
			b = append(b, m)
		}
		char := func(n rdf.NodeID) []int { return chars[n] }
		accept := func(rdf.NodeID, rdf.NodeID) (float64, bool) { return 0, true }
		got := map[[2]rdf.NodeID]bool{}
		for _, e := range matchSeq(a, b, theta, char, accept).Edges {
			got[[2]rdf.NodeID{e.A, e.B}] = true
		}
		want := map[[2]rdf.NodeID]bool{}
		for _, n := range a {
			for _, m := range b {
				if Overlap(char(n), char(m)) >= theta {
					want[[2]rdf.NodeID{n, m}] = true
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d θ=%v: got %v want %v", seed, theta, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(synth, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}

	// The exact-θ pair from the prefix derivation: a has 20 objects, b the
	// 13 that B indexes most often, so overlap is 13/20 = θ and b shares
	// only the last object of a's 8-object prefix.
	chars := map[rdf.NodeID][]int{0: {}}
	for o := 0; o < 20; o++ {
		chars[0] = append(chars[0], o)
	}
	b := []rdf.NodeID{100}
	chars[100] = chars[0][7:]
	for j := 0; j < 3; j++ {
		m := rdf.NodeID(101 + j)
		chars[m] = append([]int{50 + j}, chars[0][7:]...)
		b = append(b, m)
	}
	h := matchSeq([]rdf.NodeID{0}, b, 0.65, func(n rdf.NodeID) []int { return chars[n] },
		func(rdf.NodeID, rdf.NodeID) (float64, bool) { return 0, true })
	if len(h.Edges) == 0 || h.Edges[0].B != 100 {
		t.Errorf("pair at overlap exactly θ lost: edges %v", h.Edges)
	}
}

func TestOverlapMatchEmptyInputs(t *testing.T) {
	h := matchSeq(nil, nil, 0.5,
		func(rdf.NodeID) []string { return nil },
		func(rdf.NodeID, rdf.NodeID) (float64, bool) { return 0, true })
	if h.HasEdges() {
		t.Error("empty inputs must produce no edges")
	}
}

func TestEnrichSinglePair(t *testing.T) {
	c, a, b := literalNodes(t, []string{"abc"}, []string{"abz"})
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	xi := core.NewWeighted(hp)
	h := &WeightedBipartite{A: a, B: b, Edges: []BipartiteEdge{{A: a[0], B: b[0], D: 1.0 / 3.0}}}
	ws := core.NewWorkspace()
	if un1, un2 := ws.Unaligned(c, xi.P, true); !slices.Contains(un1, a[0]) || !slices.Contains(un2, b[0]) {
		t.Fatal("the pair should start unaligned")
	}
	out := xi
	Enrich(out, h, ws)
	if out.P.Color(a[0]) != out.P.Color(b[0]) {
		t.Fatal("enriched pair should share a cluster")
	}
	if math.Abs(out.W[a[0]]-1.0/6.0) > 1e-12 || math.Abs(out.W[b[0]]-1.0/6.0) > 1e-12 {
		t.Errorf("weights = %v, %v; want 1/6 each (half the distance)", out.W[a[0]], out.W[b[0]])
	}
	// σ_ξ(a,b) = 1/6 ⊕ 1/6 = 1/3 recovers the discovered distance.
	if d := out.Distance(a[0], b[0]); math.Abs(d-1.0/3.0) > 1e-12 {
		t.Errorf("induced distance = %v, want 1/3", d)
	}
	// Enrich wrote in place through the workspace that indexes ξ, so its
	// unaligned sets follow without a rebuild.
	if un1, un2 := ws.Unaligned(c, xi.P, true); slices.Contains(un1, a[0]) || slices.Contains(un2, b[0]) {
		t.Error("the enriched pair is still listed unaligned")
	}
}

func TestEnrichComponentWeightsCoverDistances(t *testing.T) {
	// A chain component a1–b1–a2–b2 exercises the ⊕-shortest-path d* and
	// the half-max weight rule: d*(a,b) ≤ w(a) ⊕ w(b) for all pairs.
	c, a, b := literalNodes(t, []string{"x1", "x2"}, []string{"y1", "y2"})
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	xi := core.NewWeighted(hp)
	h := &WeightedBipartite{A: a, B: b, Edges: []BipartiteEdge{
		{A: a[0], B: b[0], D: 0.2},
		{A: a[1], B: b[0], D: 0.1},
		{A: a[1], B: b[1], D: 0.3},
	}}
	out := xi
	Enrich(out, h, core.NewWorkspace())
	col := out.P.Color(a[0])
	for _, n := range []rdf.NodeID{a[1], b[0], b[1]} {
		if out.P.Color(n) != col {
			t.Fatal("all chain members should share one cluster")
		}
	}
	// d* distances: a1–b1 = .2, a1–b2 = .2⊕.1⊕.3 = .6, a2–b1 = .1, a2–b2 = .3.
	dstar := map[[2]int]float64{
		{0, 0}: 0.2, {0, 1}: 0.6,
		{1, 0}: 0.1, {1, 1}: 0.3,
	}
	for ij, want := range dstar {
		got := out.W[a[ij[0]]] + out.W[b[ij[1]]]
		if got+1e-12 < want {
			t.Errorf("w(a%d)+w(b%d) = %v < d* = %v", ij[0], ij[1], got, want)
		}
	}
	// Exact weights: w(a1) = max(.2,.6)/2 = .3, w(a2) = max(.1,.3)/2 = .15,
	// w(b1) = max(.2,.1)/2 = .1, w(b2) = max(.6,.3)/2 = .3.
	wantW := []struct {
		n rdf.NodeID
		w float64
	}{{a[0], 0.3}, {a[1], 0.15}, {b[0], 0.1}, {b[1], 0.3}}
	for _, c2 := range wantW {
		if math.Abs(out.W[c2.n]-c2.w) > 1e-12 {
			t.Errorf("w(%d) = %v, want %v", c2.n, out.W[c2.n], c2.w)
		}
	}
}

func TestEnrichSeparateComponents(t *testing.T) {
	c, a, b := literalNodes(t, []string{"x1", "x2"}, []string{"y1", "y2"})
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	xi := core.NewWeighted(hp)
	h := &WeightedBipartite{A: a, B: b, Edges: []BipartiteEdge{
		{A: a[0], B: b[0], D: 0.2},
		{A: a[1], B: b[1], D: 0.4},
	}}
	out := xi
	Enrich(out, h, core.NewWorkspace())
	if out.P.Color(a[0]) == out.P.Color(a[1]) {
		t.Error("separate components must get distinct clusters")
	}
	if out.P.Color(a[0]) != out.P.Color(b[0]) || out.P.Color(a[1]) != out.P.Color(b[1]) {
		t.Error("component members must share their cluster")
	}
}

func TestEnrichEmptyH(t *testing.T) {
	c, a, b := literalNodes(t, []string{"x"}, []string{"y"})
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	xi := core.NewWeighted(hp)
	out := cloneWeighted(xi)
	if changed := Enrich(out, &WeightedBipartite{A: a, B: b}, core.NewWorkspace()); changed != nil {
		t.Errorf("enriching with an empty H changed %v", changed)
	}
	if !core.Equivalent(out.P, xi.P) || !slices.Equal(out.W, xi.W) {
		t.Error("enriching with an empty H must be the identity")
	}
}

func TestNLDistanceHandComputed(t *testing.T) {
	// u (3 edges) vs u' (2 edges) from the wordy Figure 7 after the
	// literal enrichment: coupled (p,alpha) and (p,gamma) at weight 0,
	// uncoupled (p,beta): σNL = (0 + 0 + 1)/3 = 1/3.
	g1, g2 := figure7Wordy(t)
	c, hp := combine(t, g1, g2)
	xi := core.NewWeighted(hp)
	u := srcNode(t, c, "u")
	u2 := tgtNode(t, c, "u'")
	if d := NLDistance(c, xi, u, u2); math.Abs(d-1.0/3.0) > 1e-12 {
		t.Errorf("σNL(u, u') = %v, want 1/3", d)
	}
	// Nodes with no outgoing edges are indistinguishable: distance 0.
	p1 := srcNode(t, c, "p")
	p2 := tgtNode(t, c, "p")
	if d := NLDistance(c, xi, p1, p2); d != 0 {
		t.Errorf("σNL of two sink predicates = %v, want 0", d)
	}
	// Sink vs non-sink: everything uncoupled → 1.
	if d := NLDistance(c, xi, p1, u2); d != 1 {
		t.Errorf("σNL(sink, u') = %v, want 1", d)
	}
}

// TestOverlapAlignFigure7Cascade runs the full Algorithm 2 on the wordy
// Figure 7 variant and checks the cascade: the edited literal matches
// first, propagation aligns v/v′, the non-literal overlap round aligns
// u/u′, and a further propagation aligns w/w′.
func TestOverlapAlignFigure7Cascade(t *testing.T) {
	g1, g2 := figure7Wordy(t)
	c, hp := combine(t, g1, g2)
	res, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiteralPairs != 1 {
		t.Errorf("literal pairs = %d, want 1 (the edited label)", res.LiteralPairs)
	}
	if res.NonLiteralPairs < 1 {
		t.Errorf("non-literal pairs = %d, want ≥ 1 (u/u')", res.NonLiteralPairs)
	}
	xi := res.Xi
	pairs := [][2]rdf.NodeID{
		{srcLit(t, c, "alpha beta gamma"), tgtLit(t, c, "alpha gamma")},
		{srcNode(t, c, "v"), tgtNode(t, c, "v'")},
		{srcNode(t, c, "u"), tgtNode(t, c, "u'")},
		{srcNode(t, c, "w"), tgtNode(t, c, "w'")},
	}
	for _, pr := range pairs {
		if xi.P.Color(pr[0]) != xi.P.Color(pr[1]) {
			t.Errorf("overlap should cluster %s with %s",
				c.Label(pr[0]), c.Label(pr[1]))
		}
		if d := xi.Distance(pr[0], pr[1]); d > res.Theta {
			t.Errorf("induced distance for %s/%s = %v, want ≤ θ",
				c.Label(pr[0]), c.Label(pr[1]), d)
		}
	}
	// Distinct entities must stay apart.
	if xi.P.Color(srcNode(t, c, "u")) == xi.P.Color(tgtNode(t, c, "v'")) {
		t.Error("u and v' must not share a cluster")
	}
}

// TestTheorem1 validates the soundness theorem on the wordy Figure 7 and on
// random graphs: every pair the overlap alignment clusters together
// satisfies σEdit(n, m) ≤ ω(n) ⊕ ω(m). (The paper states the bound with a
// product; ⊕ is the weaker, construction-consistent combination — see
// DESIGN.md.)
func TestTheorem1(t *testing.T) {
	check := func(t *testing.T, c *rdf.Combined, hp *core.Partition) {
		t.Helper()
		res, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSigmaEdit(c, hp, SigmaEditOptions{})
		if err != nil {
			t.Fatal(err)
		}
		xi := res.Xi
		for i := 0; i < c.N1; i++ {
			for j := c.N1; j < c.N1+c.N2; j++ {
				n, m := rdf.NodeID(i), rdf.NodeID(j)
				if xi.P.Color(n) != xi.P.Color(m) {
					continue
				}
				bound := core.OPlus(xi.W[n], xi.W[m])
				if got := s.Distance(n, m); got > bound+1e-9 {
					t.Errorf("Theorem 1 violated at (%s, %s): σEdit = %v > ω⊕ω = %v",
						c.Label(n), c.Label(m), got, bound)
				}
			}
		}
	}
	t.Run("figure7", func(t *testing.T) {
		g1, g2 := figure7Wordy(t)
		c, hp := combine(t, g1, g2)
		check(t, c, hp)
	})
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			c := randomCombined(r)
			in := core.NewInterner()
			hp, _, _ := (&core.Engine{}).Hybrid(c, in)
			check(t, c, hp)
		}
	})
}

// TestOverlapAlignSubsumesHybrid: the overlap alignment only adds pairs on
// top of the hybrid alignment (it starts from ξ0 = (λHybrid, 0) and only
// enriches unaligned nodes).
func TestOverlapAlignSubsumesHybrid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		in := core.NewInterner()
		hp, _, _ := (&core.Engine{}).Hybrid(c, in)
		res, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65})
		if err != nil {
			return false
		}
		for i := 0; i < c.N1; i++ {
			for j := c.N1; j < c.N1+c.N2; j++ {
				n, m := rdf.NodeID(i), rdf.NodeID(j)
				if hp.Color(n) == hp.Color(m) && res.Xi.P.Color(n) != res.Xi.P.Color(m) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOverlapAlignBadTheta(t *testing.T) {
	g1, g2 := figure7Wordy(t)
	c, hp := combine(t, g1, g2)
	if _, err := OverlapAlign(c, hp, OverlapOptions{Theta: 1.5}); err == nil {
		t.Error("θ > 1 must be rejected")
	}
	if _, err := OverlapAlign(c, hp, OverlapOptions{Theta: -0.1}); err == nil {
		t.Error("θ < 0 must be rejected")
	}
}

func TestOverlapAlignDefaultTheta(t *testing.T) {
	g1, g2 := figure7Wordy(t)
	c, hp := combine(t, g1, g2)
	res, err := OverlapAlign(c, hp, OverlapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta != DefaultTheta {
		t.Errorf("default θ = %v, want %v", res.Theta, DefaultTheta)
	}
}

func TestOverlapAlignMaxRoundsGuard(t *testing.T) {
	// The wordy Figure 7 cascade needs at least two enrich/propagate
	// rounds (literals, then u/u′, then w/w′); capping at one round must
	// surface as ErrNoFixpoint instead of silently truncating the alignment.
	defer func(saved int) { maxOverlapRounds = saved }(maxOverlapRounds)
	maxOverlapRounds = 1
	g1, g2 := figure7Wordy(t)
	c, hp := combine(t, g1, g2)
	_, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65})
	var nf *core.NoFixpointError
	if !errors.Is(err, core.ErrNoFixpoint) || !errors.As(err, &nf) {
		t.Fatalf("err = %v, want ErrNoFixpoint", err)
	}
	if nf.Stage != core.StageOverlap || nf.Round != 2 {
		t.Errorf("gave up in stage %q round %d, want %q round 2", nf.Stage, nf.Round, core.StageOverlap)
	}
}

func TestOverlapRoundsMonotoneUnaligned(t *testing.T) {
	// Every round of Algorithm 2 with a non-empty H strictly shrinks the
	// unaligned sets; verify through the round counter and final state.
	g1, g2 := figure7Wordy(t)
	c, hp := combine(t, g1, g2)
	res, err := OverlapAlign(c, hp, OverlapOptions{Theta: 0.65})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 propagates the literal match (aligning v/v′) and discovers
	// u/u′; round 2 enriches u/u′, propagation aligns w/w′, and the
	// final match round comes up empty.
	if res.Rounds != 2 {
		t.Errorf("cascade rounds = %d, want 2", res.Rounds)
	}
	un1, un2 := core.Unaligned(c, res.Xi.P)
	for _, n := range append(un1, un2...) {
		if !c.IsLiteral(n) {
			t.Errorf("node %s should have been aligned by the cascade", c.Label(n))
		}
	}
}

func BenchmarkNLDistance(b *testing.B) {
	g1, g2 := figure7WordyB(b)
	c := rdf.Union(g1, g2)
	in := core.NewInterner()
	hp, _, _ := (&core.Engine{}).Hybrid(c, in)
	xi := core.NewWeighted(hp)
	u := c.FromSource(mustURIb(b, g1, "u"))
	u2 := c.FromTarget(mustURIb(b, g2, "u'"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NLDistance(c, xi, u, u2)
	}
}

func BenchmarkOverlapMatchLiterals(b *testing.B) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	var l1, l2 []string
	for i := 0; i < 300; i++ {
		l1 = append(l1, words[i%8]+" "+words[(i/3)%8]+" "+words[(i/7)%8]+" #"+string(rune('a'+i%26)))
		l2 = append(l2, words[i%8]+" "+words[(i/3)%8]+" "+words[(i/5)%8]+" #"+string(rune('a'+i%26)))
	}
	c, aa, bb := literalNodesB(b, l1, l2)
	theta := 0.65
	char := func(n rdf.NodeID) []string { return Split(c.Label(n).Value) }
	dist := func(n, m rdf.NodeID) (float64, bool) {
		return strdist.WithinThreshold(c.Label(n).Value, c.Label(m).Value, theta)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchSeq(aa, bb, theta, char, dist)
	}
}

// Benchmark-flavoured duplicates of the test helpers (testing.B instead of
// *testing.T).
func figure7WordyB(b *testing.B) (*rdf.Graph, *rdf.Graph) {
	b.Helper()
	return figure7Wordy(b)
}

func mustURIb(b *testing.B, g *rdf.Graph, uri string) rdf.NodeID {
	b.Helper()
	n, ok := g.FindURI(uri)
	if !ok {
		b.Fatalf("URI %s not found", uri)
	}
	return n
}

func literalNodesB(b *testing.B, l1, l2 []string) (*rdf.Combined, []rdf.NodeID, []rdf.NodeID) {
	b.Helper()
	return literalNodes(b, l1, l2)
}

// TestOverlapCandidatesGtoPdb pins the prefix filter's selectivity on a
// GtoPdb pair: the matching screens at most 20 candidate pairs per edge it
// finds (the paper's ⌈kθ⌉ prefix screens over 100), and the StageOverlap
// progress events report the screened candidates round by round.
func TestOverlapCandidatesGtoPdb(t *testing.T) {
	c, hp := gtopdbOverlapInput(t, 0.05)
	reported := 0
	hooks := core.Hooks{OnRound: func(ev core.ProgressEvent) {
		if ev.Stage == core.StageOverlap {
			reported += ev.Dirty
		}
	}}
	res, err := OverlapAlign(c, hp, OverlapOptions{Theta: DefaultTheta, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	edges := res.LiteralPairs + res.NonLiteralPairs
	if edges == 0 {
		t.Fatal("no edges found; the workload no longer exercises the matcher")
	}
	if res.Candidates > 20*edges {
		t.Errorf("screened %d candidates for %d edges (%.1f per edge), want at most 20 per edge",
			res.Candidates, edges, float64(res.Candidates)/float64(edges))
	}
	if reported != res.Candidates {
		t.Errorf("progress events reported %d candidates, result counts %d", reported, res.Candidates)
	}
	t.Logf("%d candidates for %d edges", res.Candidates, edges)
}
