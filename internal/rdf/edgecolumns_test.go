package rdf_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/snapshot"
)

// refGraph is the test's own model of a graph: its labels in node-ID order
// and its edge set as a sorted, duplicate-free triple list.
type refGraph struct {
	labels  []rdf.Label
	triples []rdf.Triple
}

func compareTriples(a, b rdf.Triple) int {
	if c := cmp.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return cmp.Compare(a.O, b.O)
}

func compareEdges(a, b rdf.Edge) int {
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return cmp.Compare(a.O, b.O)
}

func newRefGraph(labels []rdf.Label, ts []rdf.Triple) refGraph {
	ts = slices.Clone(ts)
	slices.SortFunc(ts, compareTriples)
	return refGraph{labels: labels, triples: slices.Compact(ts)}
}

// termKey identifies a term within one document or script: blanks by their
// local name, URIs and literals by their value.
type termKey struct {
	kind  rdf.Kind
	value string
}

// refFromTerms models the parser's node numbering: every term gets the
// next ID at its first occurrence, scanning each triple S, P, O.
func refFromTerms(tts []rdf.TermTriple) refGraph {
	ids := map[termKey]rdf.NodeID{}
	var labels []rdf.Label
	id := func(t rdf.Term) rdf.NodeID {
		k := termKey{t.Kind, t.Value}
		if n, ok := ids[k]; ok {
			return n
		}
		ids[k] = rdf.NodeID(len(labels))
		labels = append(labels, t.Label())
		return ids[k]
	}
	var ts []rdf.Triple
	for _, tt := range tts {
		s := id(tt.S)
		p := id(tt.P)
		ts = append(ts, rdf.Triple{S: s, P: p, O: id(tt.O)})
	}
	return newRefGraph(labels, ts)
}

// unionRef models G1 ⊎ G2: G2's node IDs are offset by |N1|.
func unionRef(r1, r2 refGraph) refGraph {
	off := rdf.NodeID(len(r1.labels))
	ts := slices.Clone(r1.triples)
	for _, t := range r2.triples {
		ts = append(ts, rdf.Triple{S: t.S + off, P: t.P + off, O: t.O + off})
	}
	return newRefGraph(slices.Concat(r1.labels, r2.labels), ts)
}

// randomTerms returns a random term-level document: URI and blank
// subjects, a small predicate pool that also appears as subjects and
// objects, literal, URI and blank objects, and some repeated lines.
func randomTerms(r *rand.Rand, lines int) []rdf.TermTriple {
	uri := func(k int) rdf.Term { return rdf.Term{Kind: rdf.URI, Value: fmt.Sprintf("http://e/u%d", k)} }
	node := func() rdf.Term {
		if r.Intn(4) == 0 {
			return rdf.Term{Kind: rdf.Blank, Value: fmt.Sprintf("b%d", r.Intn(12))}
		}
		return uri(r.Intn(40))
	}
	var tts []rdf.TermTriple
	for len(tts) < lines {
		if len(tts) > 0 && r.Intn(10) == 0 {
			tts = append(tts, tts[r.Intn(len(tts))])
			continue
		}
		tt := rdf.TermTriple{S: node(), P: uri(r.Intn(8))}
		switch r.Intn(4) {
		case 0:
			tt.O = rdf.Term{Kind: rdf.Literal, Value: fmt.Sprintf("lit %d", r.Intn(30))}
		case 1:
			tt.O = tt.P
		default:
			tt.O = node()
		}
		tts = append(tts, tt)
	}
	return tts
}

func termDoc(tts []rdf.TermTriple) string {
	var sb strings.Builder
	for _, tt := range tts {
		sb.WriteString(tt.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// requireEdgeColumns holds every edge accessor of g to ref: NumTriples,
// EachTriple and Triples to the sorted set; Out, In, PredOcc and
// Dependents (and the degrees) per node to runs derived from it.
func requireEdgeColumns(t *testing.T, what string, g *rdf.Graph, ref refGraph) {
	t.Helper()
	n := len(ref.labels)
	if g.NumNodes() != n || g.NumTriples() != len(ref.triples) {
		t.Fatalf("%s: %d nodes, %d triples; want %d, %d", what, g.NumNodes(), g.NumTriples(), n, len(ref.triples))
	}
	for i, l := range ref.labels {
		if got := g.Label(rdf.NodeID(i)); got != l {
			t.Fatalf("%s: label of node %d is %v, want %v", what, i, got, l)
		}
	}
	var each []rdf.Triple
	g.EachTriple(func(tr rdf.Triple) bool {
		each = append(each, tr)
		return true
	})
	if !slices.Equal(each, ref.triples) {
		t.Fatalf("%s: EachTriple = %v\nwant %v", what, each, ref.triples)
	}
	if got := g.Triples(); !slices.Equal(got, ref.triples) {
		t.Fatalf("%s: Triples = %v\nwant %v", what, got, ref.triples)
	}
	out := make([][]rdf.Edge, n)
	in := make([][]rdf.Edge, n)
	po := make([][]rdf.Edge, n)
	deps := make([][]rdf.NodeID, n)
	addDep := func(k, s rdf.NodeID) {
		if d := deps[k]; len(d) == 0 || d[len(d)-1] != s {
			deps[k] = append(d, s)
		}
	}
	for _, tr := range ref.triples {
		out[tr.S] = append(out[tr.S], rdf.Edge{P: tr.P, O: tr.O})
		in[tr.O] = append(in[tr.O], rdf.Edge{P: tr.P, O: tr.S})
		po[tr.P] = append(po[tr.P], rdf.Edge{P: tr.S, O: tr.O})
		addDep(tr.P, tr.S)
		addDep(tr.O, tr.S)
	}
	for i := 0; i < n; i++ {
		v := rdf.NodeID(i)
		slices.SortFunc(in[i], compareEdges)
		slices.SortFunc(po[i], compareEdges)
		if got := g.Out(v); !slices.Equal(got, out[i]) || g.OutDegree(v) != len(out[i]) {
			t.Fatalf("%s: Out(%d) = %v, want %v", what, i, got, out[i])
		}
		if got := g.In(v); !slices.Equal(got, in[i]) || g.InDegree(v) != len(in[i]) {
			t.Fatalf("%s: In(%d) = %v, want %v", what, i, got, in[i])
		}
		if got := g.PredOcc(v); !slices.Equal(got, po[i]) || g.PredOccDegree(v) != len(po[i]) {
			t.Fatalf("%s: PredOcc(%d) = %v, want %v", what, i, got, po[i])
		}
		if got := g.Dependents(v); !slices.Equal(got, deps[i]) {
			t.Fatalf("%s: Dependents(%d) = %v, want %v", what, i, got, deps[i])
		}
	}
}

// editCase is a random edit script over a graph modelled by base, and the
// model of its result: deletes of existing triples without blank
// positions, then inserts that may introduce URIs and script blanks.
type editCase struct {
	ops   []rdf.EditOp
	after refGraph
}

func randomEdit(r *rand.Rand, base refGraph, dels, adds int) editCase {
	term := func(n rdf.NodeID) rdf.Term {
		l := base.labels[n]
		return rdf.Term{Kind: l.Kind, Value: l.Value}
	}
	ids := map[termKey]rdf.NodeID{}
	for i, l := range base.labels {
		if l.Kind != rdf.Blank {
			ids[termKey{l.Kind, l.Value}] = rdf.NodeID(i)
		}
	}
	set := map[rdf.Triple]bool{}
	for _, tr := range base.triples {
		set[tr] = true
	}
	var ops []rdf.EditOp
	for _, k := range r.Perm(len(base.triples)) {
		if len(ops) == dels {
			break
		}
		tr := base.triples[k]
		if base.labels[tr.S].Kind == rdf.Blank || base.labels[tr.O].Kind == rdf.Blank {
			continue
		}
		ops = append(ops, rdf.EditOp{T: rdf.TermTriple{S: term(tr.S), P: term(tr.P), O: term(tr.O)}})
		delete(set, tr)
	}
	// Inserts: the model numbers new terms in resolution order, as the
	// Editor does.
	labels := slices.Clone(base.labels)
	resolve := func(t rdf.Term) rdf.NodeID {
		k := termKey{t.Kind, t.Value}
		if n, ok := ids[k]; ok {
			return n
		}
		ids[k] = rdf.NodeID(len(labels))
		labels = append(labels, t.Label())
		return ids[k]
	}
	known := func(t rdf.Term) bool {
		_, ok := ids[termKey{t.Kind, t.Value}]
		return ok
	}
	for inserted := 0; inserted < adds; {
		tt := rdf.TermTriple{
			S: rdf.Term{Kind: rdf.URI, Value: fmt.Sprintf("http://e/u%d", r.Intn(60))},
			P: rdf.Term{Kind: rdf.URI, Value: fmt.Sprintf("http://e/u%d", r.Intn(8))},
			O: rdf.Term{Kind: rdf.Literal, Value: fmt.Sprintf("new %d", r.Intn(1000))},
		}
		if r.Intn(3) == 0 {
			tt.S = rdf.Term{Kind: rdf.Blank, Value: fmt.Sprintf("n%d", r.Intn(4))}
		}
		if r.Intn(3) == 0 {
			tt.O = rdf.Term{Kind: rdf.URI, Value: fmt.Sprintf("http://e/u%d", r.Intn(60))}
		}
		if known(tt.S) && known(tt.P) && known(tt.O) && set[rdf.Triple{S: resolve(tt.S), P: resolve(tt.P), O: resolve(tt.O)}] {
			continue // already present: an insert must add a triple
		}
		s := resolve(tt.S)
		p := resolve(tt.P)
		set[rdf.Triple{S: s, P: p, O: resolve(tt.O)}] = true
		ops = append(ops, rdf.EditOp{Insert: true, T: tt})
		inserted++
	}
	var ts []rdf.Triple
	for tr := range set {
		ts = append(ts, tr)
	}
	return editCase{ops: ops, after: newRefGraph(labels, ts)}
}

// TestEdgeColumnsAgree: the out-CSR is a graph's one edge list, and every
// accessor derived from it — NumTriples, EachTriple, Triples, Out, In,
// PredOcc, Dependents — agrees with a sorted-set model of the graph, for
// every way a graph is made: Builder, sequential and parallel N-Triples
// parses, Turtle, Union/UnionIn over heap, mapped and zero-value operands,
// edits on both sides of the overlay/compaction threshold, RebaseUnion,
// chains of edits (checkEditChains), and FromColumns over heap and mapped
// GRPM snapshots and a GRPH fixture.
func TestEdgeColumnsAgree(t *testing.T) {
	dir := t.TempDir()
	sawPath := map[bool]bool{} // keyed by "the edit compacted"
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		tts := randomTerms(r, 120+r.Intn(120))
		doc := termDoc(tts)
		ref := refFromTerms(tts)
		name := func(s string) string { return fmt.Sprintf("seed %d: %s", seed, s) }

		b := rdf.NewBuilder("built")
		node := func(tm rdf.Term) rdf.NodeID {
			switch tm.Kind {
			case rdf.URI:
				return b.URI(tm.Value)
			case rdf.Literal:
				return b.Literal(tm.Value)
			}
			return b.Blank(tm.Value)
		}
		for _, tt := range tts {
			s := node(tt.S)
			p := node(tt.P)
			b.Triple(s, p, node(tt.O))
		}
		requireEdgeColumns(t, name("builder"), b.MustGraph(), ref)

		seq, err := rdf.ParseNTriplesString(doc, "seq")
		if err != nil {
			t.Fatal(err)
		}
		requireEdgeColumns(t, name("sequential parse"), seq, ref)
		par, err := rdf.ParseNTriplesString(doc, "par", rdf.WithParseWorkers(4), rdf.WithParseBlockSize(64))
		if err != nil {
			t.Fatal(err)
		}
		requireEdgeColumns(t, name("parallel parse"), par, ref)
		ttl, err := rdf.ParseTurtleString(doc, "ttl")
		if err != nil {
			t.Fatal(err)
		}
		requireEdgeColumns(t, name("turtle"), ttl, ref)

		var buf bytes.Buffer
		if err := snapshot.WriteGraphMapped(&buf, seq); err != nil {
			t.Fatal(err)
		}
		heapSnap, err := snapshot.ReadGraph(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		requireEdgeColumns(t, name("heap GRPM"), heapSnap, ref)
		path := filepath.Join(dir, fmt.Sprintf("g%d.snap", seed))
		if err := snapshot.WriteGraphMappedFile(path, seq); err != nil {
			t.Fatal(err)
		}
		mapped, err := snapshot.OpenGraphMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mapped.Close()
		requireEdgeColumns(t, name("mapped GRPM"), mapped, ref)

		// Unions over every pairing of heap, mapped and empty operands.
		tts2 := randomTerms(r, 60+r.Intn(60))
		ref2 := refFromTerms(tts2)
		heap2, err := rdf.ParseNTriplesString(termDoc(tts2), "heap2")
		if err != nil {
			t.Fatal(err)
		}
		operands := []struct {
			what string
			g    *rdf.Graph
			ref  refGraph
		}{
			{"heap", heap2, ref2},
			{"mapped", mapped, ref},
			{"zero", &rdf.Graph{}, refGraph{}},
		}
		disk := core.OutOfCore(dir)
		defer disk.Close()
		for _, o1 := range operands {
			for _, o2 := range operands {
				want := unionRef(o1.ref, o2.ref)
				pair := o1.what + "⊎" + o2.what
				requireEdgeColumns(t, name("Union "+pair), rdf.Union(o1.g, o2.g).Graph, want)
				requireEdgeColumns(t, name("UnionIn out-of-core "+pair), rdf.UnionIn(disk, o1.g, o2.g).Graph, want)
			}
		}

		// Edits on both sides of the overlay threshold: a sparse script, the
		// largest script that still overlays, the smallest that compacts,
		// and a dense one. The base's Dependents are built (by the check
		// above) for the first graph and lazy for the second.
		nt := len(ref.triples)
		const adds = 2
		edge := (nt+adds+rdf.PatchDenseFactor-1)/rdf.PatchDenseFactor - adds // smallest compacting deletes
		for _, dels := range []int{1, edge - 1, edge, nt / 3} {
			ec := randomEdit(r, ref, dels, adds)
			what := name(fmt.Sprintf("edit of %d ops", len(ec.ops)))
			lazy, err := rdf.ParseNTriplesString(doc, "lazy")
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range []*rdf.Graph{seq, lazy} {
				res, err := rdf.NewEditor(base).Apply(ec.ops)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				churn := len(res.Added) + len(res.Removed)
				compacts := rdf.PatchDenseFactor*churn >= nt+len(res.Added)
				if rdf.HasOverlay(res.Graph) == compacts {
					t.Fatalf("%s: overlay %v for a churn of %d in %d triples", what, rdf.HasOverlay(res.Graph), churn, nt)
				}
				sawPath[compacts] = true
				requireEdgeColumns(t, what, res.Graph, ec.after)

				c := rdf.Union(heap2, base)
				c.Dependents(0)
				rc := rdf.RebaseUnion(c, res)
				requireEdgeColumns(t, what+" RebaseUnion", rc.Graph, unionRef(ref2, ec.after))
			}
		}
	}

	if !sawPath[false] || !sawPath[true] {
		t.Fatalf("edits exercised the overlay %v, the compaction %v; want both", sawPath[false], sawPath[true])
	}
	checkEditChains(t, dir)

	// The legacy GRPH fixture decodes through FromColumns too.
	legacy, err := snapshot.ReadGraphFile(filepath.Join("..", "snapshot", "testdata", "graph-grph.snap"))
	if err != nil {
		t.Fatal(err)
	}
	var tts []rdf.TermTriple
	for i, line := range strings.Split(legacyGraphDoc, "\n") {
		tt, ok, err := rdf.ParseTermTriple(line, i+1, false)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			tts = append(tts, tt)
		}
	}
	requireEdgeColumns(t, "GRPH fixture", legacy, refFromTerms(tts))
}

// legacyGraphDoc is the document the GRPH fixture
// internal/snapshot/testdata/graph-grph.snap stores.
const legacyGraphDoc = "<http://example.org/s> <http://example.org/p> \"v\" .\n" +
	"_:b <http://example.org/p> <http://example.org/s> .\n" +
	"_:b <http://example.org/q> _:c .\n" +
	"_:c <http://example.org/p> \"raw\xffbyte\" .\n" +
	"<http://example.org/s> <http://example.org/q> <http://example.org/t> .\n"

// wideTerms is randomTerms over many subjects: each has few out-edges, so
// an edit's overlay stays small against the graph and overlays chain over
// several versions before the dense rule compacts them.
func wideTerms(r *rand.Rand, lines int) []rdf.TermTriple {
	node := func() rdf.Term {
		if r.Intn(8) == 0 {
			return rdf.Term{Kind: rdf.Blank, Value: fmt.Sprintf("b%d", r.Intn(20))}
		}
		return rdf.Term{Kind: rdf.URI, Value: fmt.Sprintf("http://e/u%d", r.Intn(lines/2))}
	}
	tts := make([]rdf.TermTriple, 0, lines)
	for len(tts) < lines {
		tt := rdf.TermTriple{S: node(), P: rdf.Term{Kind: rdf.URI, Value: fmt.Sprintf("http://e/u%d", r.Intn(8))}}
		if r.Intn(3) == 0 {
			tt.O = rdf.Term{Kind: rdf.Literal, Value: fmt.Sprintf("lit %d", r.Intn(300))}
		} else {
			tt.O = node()
		}
		tts = append(tts, tt)
	}
	return tts
}

// checkEditChains applies chains of 50 random edits through one Editor,
// rebasing a union over each version, from a heap base with its
// dependents built, one with them lazy, and a mapped base (whose snapshot
// stores its dependents). With the dependents built every version is
// checked as it is made, so each carries its predecessor's; with them lazy
// nothing is read until the chain ends, so every version builds its own.
// After each chain every version is checked again: later edits must not
// move earlier versions. The chains cross the compaction rule both ways;
// each edit is far below the rule by itself (at most 6 triples against
// 600), so every version the rule compacts is a fold of the overlay that
// earlier edits filled (folded), not a rebuild.
// On every tenth version that reads through overlays, its and its union's
// GRPM snapshot and N-Triples (sequential and parallel), and the Union of
// the two, must be byte-identical to the rebuilt graphs'.
func checkEditChains(t *testing.T, dir string) {
	r := rand.New(rand.NewSource(7))
	tts := wideTerms(r, 600)
	doc := termDoc(tts)
	ref := refFromTerms(tts)
	srcTTs := randomTerms(r, 40)
	srcRef := refFromTerms(srcTTs)
	parse := func(doc, name string) *rdf.Graph {
		g, err := rdf.ParseNTriplesString(doc, name)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	src := parse(termDoc(srcTTs), "src")
	path := filepath.Join(dir, "chain.snap")
	if err := snapshot.WriteGraphMappedFile(path, parse(doc, "heap")); err != nil {
		t.Fatal(err)
	}
	mapped, err := snapshot.OpenGraphMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	saw := map[bool]int{} // versions keyed by "reads through an overlay"; the rest are folds
	outputs := 0          // overlay versions whose output was compared
	for _, v := range []struct {
		what  string
		base  *rdf.Graph
		built bool
	}{
		{"heap, dependents built", parse(doc, "heap"), true},
		{"heap, dependents lazy", parse(doc, "lazy"), false},
		{"mapped", mapped, true},
	} {
		base := v.base
		c := rdf.Union(src, base)
		if v.built {
			base.Dependents(0)
			c.Dependents(0)
		}
		ed := rdf.NewEditor(base)
		cur := ref
		var graphs, unions []*rdf.Graph
		var refs []refGraph
		for step := 0; step < 50; step++ {
			what := fmt.Sprintf("%s chain, edit %d", v.what, step)
			ec := randomEdit(r, cur, 1+r.Intn(3), 1+r.Intn(3))
			res, err := ed.Apply(ec.ops)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			c = rdf.RebaseUnion(c, res)
			if step == 0 && !rdf.SharesBase(res.Graph, base) {
				t.Fatalf("%s: the first edit copied its base's out-CSR", what)
			}
			saw[rdf.HasOverlay(res.Graph)]++
			saw[rdf.HasOverlay(c.Graph)]++
			if v.built {
				requireEdgeColumns(t, what, res.Graph, ec.after)
				requireEdgeColumns(t, what+" RebaseUnion", c.Graph, unionRef(srcRef, ec.after))
			}
			graphs, unions, refs = append(graphs, res.Graph), append(unions, c.Graph), append(refs, ec.after)
			cur = ec.after
		}
		for i, g := range graphs {
			what := fmt.Sprintf("%s chain, version %d after the chain", v.what, i+1)
			requireEdgeColumns(t, what, g, refs[i])
			requireEdgeColumns(t, what+" RebaseUnion", unions[i], unionRef(srcRef, refs[i]))
			if i%10 != 9 || !rdf.HasOverlay(g) || !rdf.HasOverlay(unions[i]) {
				continue // writing every version would dominate the test
			}
			outputs++
			requireSameOutput(t, what, g, rdf.Rebuilt(g))
			requireSameOutput(t, what+" RebaseUnion", unions[i], rdf.Rebuilt(unions[i]))
			requireSameOutput(t, what+" Union", rdf.Union(g, unions[i]).Graph,
				rdf.Union(rdf.Rebuilt(g), rdf.Rebuilt(unions[i])).Graph)
		}
	}
	if saw[true] == 0 || saw[false] == 0 || outputs == 0 {
		t.Fatalf("edit chains made %d overlay and %d folded versions and compared the output of %d; want all three nonzero",
			saw[true], saw[false], outputs)
	}
}

// requireSameOutput holds g's serialisations to want's byte for byte:
// N-Triples sequential and parallel, and the GRPM snapshot.
func requireSameOutput(t *testing.T, what string, g, want *rdf.Graph) {
	t.Helper()
	for _, opts := range [][]rdf.WriteOption{nil, {rdf.WithWriteWorkers(4), rdf.WithWriteChunkSize(7)}} {
		var got, exp bytes.Buffer
		if err := rdf.WriteNTriples(&got, g, opts...); err != nil {
			t.Fatal(err)
		}
		if err := rdf.WriteNTriples(&exp, want, opts...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), exp.Bytes()) {
			t.Fatalf("%s: N-Triples (%d options) differ from the rebuilt graph's:\n%s\nwant\n%s", what, len(opts), got.Bytes(), exp.Bytes())
		}
	}
	var got, exp bytes.Buffer
	if err := snapshot.WriteGraphMapped(&got, g); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.WriteGraphMapped(&exp, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("%s: GRPM snapshot differs from the rebuilt graph's", what)
	}
}
