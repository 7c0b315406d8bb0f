package rdf

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Fuzz wall around the parsers and serialisers. Four targets:
//
//   - FuzzParseNTriples: the N-Triples reader never panics, a parse split
//     into many small blocks over three workers accepts exactly what the
//     one-worker, one-block parse accepts (same graph bit-for-bit, same
//     first error), and strict mode accepts a subset of lax mode. Both
//     parses share the block pipeline; the golden files and
//     FuzzTurtleAgreesWithNTriples (Turtle feeds the Builder directly)
//     are the independent oracles.
//   - FuzzRoundTrip: for every accepted document, parse → write → parse
//     yields an isomorphic graph (checked against an explicit node
//     mapping, not just statistics), and serialisation is idempotent from
//     the second cycle on.
//   - FuzzParseTurtle: the Turtle reader never panics and accepted
//     documents survive write → reparse with their label multisets and
//     counts intact.
//   - FuzzTurtleAgreesWithNTriples: N-Triples is a subset of Turtle, so
//     the Turtle reader builds the graph the N-Triples reader builds.
//
// FuzzLexTerm (lex_test.go) holds the lexer's word-at-a-time fast paths
// to the byte-at-a-time reference lexer.
//
// Seed corpora live under testdata/fuzz/<target>/ (the native Go corpus
// location); the f.Add seeds below are a code-reviewable duplicate of the
// interesting ones.

// ntSeedDocs are the N-Triples fuzz seeds; TestForcedTermHashCollisions
// parses them too.
var ntSeedDocs = []string{
	"<ss> <employer> <ed-uni> .\n<ss> <name> _:b2 .\n_:b2 <first> \"Slawek\" .\n",
	`<s> <p> "line\nbreak \"q\" tab\t \U0001F600 é" .` + "\n",
	"<s> <p> \"chat\"@fr .\n<s> <q> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
	"# comment\n\n   \t\n<s> <p> <o> . # trailing\n",
	"_:x <p> _:y .\r\n_:y <q> _:x .\r\n<a> <p> \"no newline\"",
	"<s> <p> oops .\n",
	"<s> <p> \"raw\xffbyte\" .\n",
	strings.Repeat("<hub> <p> <n> .\n<n> <val> \"lit\" .\n_:b <ref> <hub> .\n", 20),
}

func ntSeeds(f *testing.F) {
	for _, doc := range ntSeedDocs {
		f.Add([]byte(doc))
	}
}

func FuzzParseNTriples(f *testing.F) {
	ntSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		doc := string(data)
		// Both parses use one diagnostic name: validation errors (e.g. a
		// blank predicate) embed it, and they too must match exactly.
		seq, seqErr := ParseNTriplesString(doc, "fuzz")
		par, parErr := ParseNTriplesString(doc, "fuzz",
			WithParseWorkers(3), withParseBlockSize(37))
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("acceptance differs: sequential err %v, parallel err %v", seqErr, parErr)
		}
		if seqErr != nil {
			if seqErr.Error() != parErr.Error() {
				t.Fatalf("error differs:\nsequential: %v\nparallel:   %v", seqErr, parErr)
			}
		} else if !graphsIdentical(seq, par) {
			t.Fatal("parallel parse differs from sequential")
		}
		// Strict mode accepts a subset of lax mode.
		if _, strictErr := ParseNTriplesString(doc, "strict", WithStrictMode()); strictErr == nil && seqErr != nil {
			t.Fatalf("strict mode accepted a document lax mode rejects (%v)", seqErr)
		}
	})
}

func FuzzRoundTrip(f *testing.F) {
	ntSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseNTriplesString(string(data), "fuzz")
		if err != nil {
			return
		}
		assertRoundTripIsomorphic(t, g)
		// The canonical writer makes serialisation a parse fixpoint: one
		// cycle reproduces the document byte-for-byte (whenever the
		// canonical-order iteration converged, which has never been
		// observed to fail).
		doc1 := FormatNTriples(g)
		if _, _, converged := canonicalOrder(g); converged {
			doc2 := FormatNTriples(mustReparse(t, doc1))
			if doc1 != doc2 {
				t.Fatalf("serialisation not parse-stable:\n--- first\n%s--- second\n%s", doc1, doc2)
			}
		}
		// Parallel parse of the serialised form agrees with sequential.
		par, err := ParseNTriplesString(doc1, "par", WithParseWorkers(4), withParseBlockSize(48))
		if err != nil {
			t.Fatalf("parallel re-parse failed: %v", err)
		}
		seq := mustReparse(t, doc1)
		if !graphsIdentical(seq, par) {
			t.Fatal("parallel re-parse differs from sequential")
		}
	})
}

func mustReparse(t *testing.T, doc string) *Graph {
	t.Helper()
	g, err := ParseNTriplesString(doc, "rt")
	if err != nil {
		t.Fatalf("re-parse failed: %v\ndoc:\n%s", err, doc)
	}
	return g
}

// parseRecordingBlanks parses sequentially and returns the blank-label →
// NodeID table alongside the graph, giving round-trip checks an explicit
// witness for the blank-node part of the isomorphism.
func parseRecordingBlanks(t *testing.T, doc string) (*Graph, map[string]NodeID) {
	t.Helper()
	b := NewBuilder("wit")
	sink := builderSink{b}
	sc := newBlockScanner(strings.NewReader(doc), 0)
	for {
		blk, ok := sc.next()
		if !ok {
			break
		}
		if blk.readErr != nil {
			t.Fatalf("read: %v", blk.readErr)
		}
		err := forEachLine(blk.data, blk.startLine, func(line string, lineNo int) error {
			return parseLineInto(sink, line, lineNo, false)
		})
		if err != nil {
			t.Fatalf("re-parse failed: %v\ndoc:\n%s", err, doc)
		}
	}
	names := b.blanks
	g, err := b.Graph()
	if err != nil {
		t.Fatalf("re-parse validation failed: %v", err)
	}
	return g, names
}

// assertRoundTripIsomorphic checks that parse(write(g)) is isomorphic to
// g via the explicit mapping the serialisation defines: URI and literal
// nodes map by label, blank node n maps to the node parsed from
// "_:b<rank[n]>" where rank is the writer's canonical renumbering.
func assertRoundTripIsomorphic(t *testing.T, g *Graph) {
	t.Helper()
	doc := FormatNTriples(g)
	_, rank, _ := canonicalOrder(g)
	g2, blankNames := parseRecordingBlanks(t, doc)
	if g.NumNodes() != g2.NumNodes() || g.NumTriples() != g2.NumTriples() {
		t.Fatalf("round trip changed counts: %d/%d nodes, %d/%d triples",
			g.NumNodes(), g2.NumNodes(), g.NumTriples(), g2.NumTriples())
	}
	uris := make(map[string]NodeID)
	lits := make(map[string]NodeID)
	for i, l := range g2.labels {
		switch l.Kind {
		case URI:
			uris[l.Value] = NodeID(i)
		case Literal:
			lits[l.Value] = NodeID(i)
		}
	}
	m := make([]NodeID, g.NumNodes())
	seen := make([]bool, g2.NumNodes())
	for i, l := range g.labels {
		var to NodeID
		var ok bool
		switch l.Kind {
		case URI:
			to, ok = uris[l.Value]
		case Literal:
			to, ok = lits[l.Value]
		default:
			to, ok = blankNames["b"+strconv.Itoa(int(rank[i]))]
		}
		if !ok {
			t.Fatalf("node %d (%s) has no counterpart after round trip\ndoc:\n%s", i, l, doc)
		}
		if g2.labels[to] != l {
			t.Fatalf("node %d label changed: %s vs %s", i, l, g2.labels[to])
		}
		if seen[to] {
			t.Fatalf("mapping not injective at node %d (%s)", i, l)
		}
		seen[to] = true
		m[i] = to
	}
	ts, ts2 := g.Triples(), g2.Triples()
	mapped := make([]Triple, len(ts))
	for i, tr := range ts {
		mapped[i] = Triple{S: m[tr.S], P: m[tr.P], O: m[tr.O]}
	}
	sortTripleSlice(mapped)
	for i, tr := range mapped {
		if tr != ts2[i] {
			t.Fatalf("triple %d differs after round trip: %v vs %v\ndoc:\n%s", i, tr, ts2[i], doc)
		}
	}
}

func sortTripleSlice(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
}

func FuzzParseTurtle(f *testing.F) {
	f.Add([]byte("@prefix ex: <http://example.org/> .\nex:a ex:p ex:b ; ex:q \"lit\"@en , 42 .\n"))
	f.Add([]byte("<http://a> a <http://B> .\n_:x <http://p> [ <http://q> \"v\" ] .\n"))
	f.Add([]byte("@base <http://base/> .\n<rel> <p> true .\n"))
	f.Add([]byte("PREFIX ex: <http://example.org/>\nex:s ex:p \"\"\"long\nliteral\"\"\" .\n"))
	f.Add([]byte("<s> <p> -1.5e3 .\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseTurtleString(string(data), "fuzz")
		if err != nil {
			return
		}
		out := FormatTurtle(g)
		g2, err := ParseTurtleString(out, "fuzz-rt")
		if err != nil {
			t.Fatalf("re-parse of written Turtle failed: %v\noutput:\n%s", err, out)
		}
		if g.NumNodes() != g2.NumNodes() || g.NumTriples() != g2.NumTriples() ||
			g.NumBlanks() != g2.NumBlanks() || g.NumLiterals() != g2.NumLiterals() {
			t.Fatalf("round trip changed counts: nodes %d/%d triples %d/%d blanks %d/%d literals %d/%d\noutput:\n%s",
				g.NumNodes(), g2.NumNodes(), g.NumTriples(), g2.NumTriples(),
				g.NumBlanks(), g2.NumBlanks(), g.NumLiterals(), g2.NumLiterals(), out)
		}
		if got, want := labelMultiset(g2), labelMultiset(g); got != want {
			t.Fatalf("round trip changed labels:\n--- original\n%s\n--- reparsed\n%s\noutput:\n%s", want, got, out)
		}
	})
}

// labelMultiset renders the sorted multiset of non-blank labels.
func labelMultiset(g *Graph) string {
	var out []string
	for _, l := range g.labels {
		if l.Kind != Blank {
			out = append(out, l.String())
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// turtleExceptions are the known differences between the readers: the
// documents strict N-Triples accepts and Turtle rejects. Each entry
// recognises Turtle's error by the byte it points at.
var turtleExceptions = []struct {
	reason string
	allows func(err *ParseError, at byte) bool
}{{
	// The W3C IRIREF rule excludes these raw in both grammars, but only
	// Turtle checks them: in the N-Triples fast path the check costs
	// 8-13% of a GtoPdb parse (turtle.go). WriteNTriples escapes all
	// five, so its output reads as Turtle.
	reason: "raw '{', '}', '|', '^' or '`' in an IRI",
	allows: func(err *ParseError, at byte) bool {
		return strings.IndexByte("{}|^`", at) >= 0 && strings.HasSuffix(err.Msg, "not allowed in IRI")
	},
}}

// turtleException returns the reason of the exception that allows
// Turtle's rejection err of doc, or "" if none does.
func turtleException(doc string, err error) string {
	pe, ok := err.(*ParseError)
	if !ok {
		return ""
	}
	lines := strings.Split(doc, "\n")
	if pe.Line > len(lines) || pe.Col > len(lines[pe.Line-1]) {
		return ""
	}
	for _, e := range turtleExceptions {
		if e.allows(pe, lines[pe.Line-1][pe.Col-1]) {
			return e.reason
		}
	}
	return ""
}

// agreementSeeds returns the N-Triples fuzz seeds, the checked-in
// FuzzParseNTriples corpus and the golden documents.
func agreementSeeds(f *testing.F) []string {
	docs := append([]string(nil), ntSeedDocs...)
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseNTriples", "*"))
	if err != nil {
		f.Fatal(err)
	}
	golden, err := filepath.Glob(filepath.Join("testdata", "golden", "*.nt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(corpus, golden...) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		doc := string(data)
		if rest, ok := strings.CutPrefix(doc, "go test fuzz v1\n[]byte("); ok {
			if doc, err = strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(rest), ")")); err != nil {
				f.Fatalf("%s: %v", path, err)
			}
		}
		docs = append(docs, doc)
	}
	return docs
}

func FuzzTurtleAgreesWithNTriples(f *testing.F) {
	for _, doc := range agreementSeeds(f) {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc := string(data)
		// Every strict N-Triples document is a Turtle document denoting
		// the same graph.
		if nt, err := ParseNTriplesString(doc, "nt", WithStrictMode()); err == nil {
			ttl, err := ParseTurtleString(doc, "ttl")
			switch {
			case err != nil && turtleException(doc, err) == "":
				t.Fatalf("Turtle rejects a strict N-Triples document: %v", err)
			case err == nil && FormatNTriples(ttl) != FormatNTriples(nt):
				t.Fatalf("readers disagree:\n--- N-Triples\n%s--- Turtle\n%s", FormatNTriples(nt), FormatNTriples(ttl))
			}
		}
		// Turtle reads back what the N-Triples writer writes of any graph
		// the lax reader builds.
		g, err := ParseNTriplesString(doc, "lax")
		if err != nil {
			return
		}
		out := FormatNTriples(g)
		ttl, err := ParseTurtleString(out, "ttl")
		if err != nil {
			t.Fatalf("Turtle rejects WriteNTriples output: %v\n%s", err, out)
		}
		if got := FormatNTriples(ttl); got != out {
			t.Fatalf("Turtle re-read changed the graph:\n--- written\n%s--- re-read\n%s", out, got)
		}
	})
}
