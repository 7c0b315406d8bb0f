package rdf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicDocument(t *testing.T) {
	doc := `
# personal information, version 1 of the paper's Figure 1
<ss> <address> _:b1 .
<ss> <employer> <ed-uni> .
<ss> <name> _:b2 .
_:b1 <zip> "EH8" .
_:b1 <city> "Edinburgh" .
<ed-uni> <name> "University of Edinburgh" .
<ed-uni> <city> "Edinburgh" .
_:b2 <first> "Slawek" .
_:b2 <middle> "Pawel" .
_:b2 <last> "Staworko" .
`
	g, err := ParseNTriplesString(doc, "v1")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 10 {
		t.Errorf("NumTriples = %d, want 10", g.NumTriples())
	}
	if g.NumBlanks() != 2 {
		t.Errorf("NumBlanks = %d, want 2", g.NumBlanks())
	}
	// "Edinburgh" appears twice but is one node.
	if g.NumLiterals() != 6 {
		t.Errorf("NumLiterals = %d, want 6", g.NumLiterals())
	}
}

// TestWriteIRIEscapesAreUCHAR checks that a backslash, tab, LF or CR in an
// IRI is written as a \u escape — the W3C IRIREF rule admits no ECHAR
// escapes — by every writer, that literals keep their ECHAR escapes, and
// that each output reads back to the same labels.
func TestWriteIRIEscapesAreUCHAR(t *testing.T) {
	const iri = "http://e/a\\b\tc\nd\re"
	const lit = "x\\y\tz"
	b := NewBuilder("iri-uchar")
	b.Triple(b.URI(iri), b.URI("http://e/p"), b.Literal(lit))
	g := b.MustGraph()
	const want = `<http://e/a\u005Cb\u0009c\u000Ad\u000De>`
	if got := (Term{Kind: URI, Value: iri}).String(); got != want {
		t.Errorf("Term.String = %s, want %s", got, want)
	}
	nt, ttl := FormatNTriples(g), FormatTurtle(g)
	for name, doc := range map[string]string{"N-Triples": nt, "Turtle": ttl} {
		if !strings.Contains(doc, want) || !strings.Contains(doc, `"x\\y\tz"`) {
			t.Errorf("%s output lacks %s or the literal's ECHAR escapes:\n%s", name, want, doc)
		}
	}
	reads := map[string]func() (*Graph, error){
		"N-Triples":        func() (*Graph, error) { return ParseNTriplesString(nt, "nt") },
		"strict N-Triples": func() (*Graph, error) { return ParseNTriplesString(nt, "strict", WithStrictMode()) },
		"Turtle":           func() (*Graph, error) { return ParseTurtleString(ttl, "ttl") },
	}
	for name, read := range reads {
		g2, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		labels := map[Label]bool{}
		g2.Nodes(func(n NodeID) { labels[g2.Label(n)] = true })
		if !labels[URILabel(iri)] || !labels[LiteralLabel(lit)] {
			t.Errorf("%s read back %v, want the IRI %q and the literal %q", name, labels, iri, lit)
		}
	}
}

func TestParseEscapes(t *testing.T) {
	doc := `<s> <p> "line\nbreak and \"quote\" and tab\t and é and \U0001F600" .`
	g, err := ParseNTriplesString(doc, "esc")
	if err != nil {
		t.Fatal(err)
	}
	want := "line\nbreak and \"quote\" and tab\t and é and 😀"
	if _, ok := g.FindLiteral(want); !ok {
		t.Errorf("escape decoding failed; graph is %s", FormatNTriples(g))
	}
}

func TestParseLanguageTagAndDatatype(t *testing.T) {
	doc := `<s> <p> "chat"@fr .
<s> <q> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<s> <p> "x"@en.
<s> <p> "x"^^<http://t>.
<s> <p> "x"^^<http://t\u0041> .`
	for _, opts := range [][]ParseOption{nil, {WithStrictMode()}} {
		g, err := ParseNTriplesString(doc, "tags", opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []string{`chat@fr`, `x@en`} {
			if _, ok := g.FindLiteral(v); !ok {
				t.Errorf("language tag should be folded into the literal value %q", v)
			}
		}
		// A datatype IRI's escapes decode as in any other IRI.
		for _, v := range []string{`42^^<http://www.w3.org/2001/XMLSchema#integer>`, `x^^<http://t>`, `x^^<http://tA>`} {
			if _, ok := g.FindLiteral(v); !ok {
				t.Errorf("%d options: datatype should be folded into the literal value %q", len(opts), v)
			}
		}
		if g.NumTriples() != 5 {
			t.Errorf("NumTriples = %d, want 5", g.NumTriples())
		}
	}
}

func TestParseBlankNodesScopedPerDocument(t *testing.T) {
	doc := `_:x <p> _:y .
_:x <q> _:x .`
	g, err := ParseNTriplesString(doc, "b")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlanks() != 2 {
		t.Errorf("NumBlanks = %d, want 2 (labels _:x and _:y)", g.NumBlanks())
	}
}

// TestParseBlankLabelDots: a blank label may contain dots but never ends
// in one; a dot right after the label is the statement terminator.
func TestParseBlankLabelDots(t *testing.T) {
	g, err := ParseNTriplesString("_:a.b <p> _:c.\n_:c <p> _:a.b .", "dots")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlanks() != 2 || g.NumTriples() != 2 {
		t.Errorf("NumBlanks, NumTriples = %d, %d, want 2, 2 (labels _:a.b and _:c)", g.NumBlanks(), g.NumTriples())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"missing dot", `<s> <p> <o>`},
		{"trailing garbage", `<s> <p> <o> . extra`},
		{"literal subject", `"s" <p> <o> .`},
		{"literal predicate", `<s> "p" <o> .`},
		{"unterminated iri", `<s> <p> <o .`},
		{"unterminated literal", `<s> <p> "o .`},
		{"empty iri", `<> <p> <o> .`},
		{"bad escape", `<s> <p> "\x" .`},
		{"truncated unicode", `<s> <p> "\u00" .`},
		{"bad unicode digit", `<s> <p> "\u00zz" .`},
		{"dangling backslash", `<s> <p> "abc\`},
		{"space in iri", `<s s> <p> <o> .`},
		{"missing terms", `<s> <p> .`},
		{"stray term start", `s <p> <o> .`},
		{"blank without colon", `_x <p> <o> .`},
		{"empty blank label", `_: <p> <o> .`},
		{"blank label of dots", `_:0 <p> _:..`},
		{"blank label ending in a dot", `<s> <p> _:a..`},
		{"surrogate escape", `<s> <p> "\uD800" .`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseNTriplesString(c.doc, "bad"); err == nil {
				t.Errorf("parse accepted %q", c.doc)
			}
		})
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := ParseNTriplesString("<a> <b> <c> .\n<s> <p> oops .", "pos")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T, want *ParseError (%v)", err, err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("Error() = %q should mention the line", pe.Error())
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	doc := "\n# top comment\n<s> <p> <o> . # trailing comment\n\n   \t\n# done\n"
	g, err := ParseNTriplesString(doc, "c")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 1 {
		t.Errorf("NumTriples = %d, want 1", g.NumTriples())
	}
}

func TestRoundTripFigure2(t *testing.T) {
	g := figure2(t)
	doc := FormatNTriples(g)
	g2, err := ParseNTriplesString(doc, "fig2-rt")
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, doc)
	}
	assertIsomorphicStats(t, g, g2)
	// Blank node IDs are renumbered on parse, so byte-identity holds from
	// the second serialisation onwards (idempotence).
	doc2 := FormatNTriples(g2)
	g3, err := ParseNTriplesString(doc2, "fig2-rt2")
	if err != nil {
		t.Fatalf("re-parse 2: %v", err)
	}
	if doc3 := FormatNTriples(g3); doc2 != doc3 {
		t.Errorf("serialisation not idempotent:\n--- second\n%s--- third\n%s", doc2, doc3)
	}
}

func assertIsomorphicStats(t *testing.T, a, b *Graph) {
	t.Helper()
	sa, sb := GatherStats(a), GatherStats(b)
	sa.Name, sb.Name = "", ""
	if sa != sb {
		t.Errorf("round trip changed stats: %+v vs %+v", sa, sb)
	}
}

// randomDocGraph builds a random graph whose labels exercise the N-Triples
// escaping paths, for the round-trip property test.
func randomDocGraph(r *rand.Rand) *Graph {
	b := NewBuilder("prop")
	nURIs := 2 + r.Intn(6)
	nLits := r.Intn(6)
	nBlanks := r.Intn(4)
	alphabet := []rune{'a', 'b', 'é', '"', '\\', '\n', '\t', ' ', '>', '<', '😀', '.'}
	randString := func() string {
		n := r.Intn(8)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteRune(alphabet[r.Intn(len(alphabet))])
		}
		return sb.String()
	}
	subjects := []NodeID{}
	preds := []NodeID{}
	objects := []NodeID{}
	for i := 0; i < nURIs; i++ {
		u := b.URI(strings.ReplaceAll(randString(), " ", "_") + string(rune('a'+i)))
		subjects = append(subjects, u)
		preds = append(preds, u)
		objects = append(objects, u)
	}
	for i := 0; i < nLits; i++ {
		objects = append(objects, b.Literal(randString()+string(rune('0'+i))))
	}
	for i := 0; i < nBlanks; i++ {
		bl := b.FreshBlank()
		subjects = append(subjects, bl)
		objects = append(objects, bl)
	}
	nTriples := 1 + r.Intn(15)
	for i := 0; i < nTriples; i++ {
		b.Triple(
			subjects[r.Intn(len(subjects))],
			preds[r.Intn(len(preds))],
			objects[r.Intn(len(objects))],
		)
	}
	// N-Triples cannot represent isolated nodes, so make sure every node
	// occurs in at least one triple.
	for _, o := range objects {
		b.Triple(subjects[0], preds[0], o)
	}
	for _, s := range subjects {
		b.Triple(s, preds[0], objects[0])
	}
	g, err := b.Graph()
	if err != nil {
		// Labels are unique by construction, so this cannot happen.
		panic(err)
	}
	return g
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDocGraph(r)
		doc := FormatNTriples(g)
		g2, err := ParseNTriplesString(doc, "rt")
		if err != nil {
			t.Logf("re-parse failed: %v\ndoc:\n%s", err, doc)
			return false
		}
		sa, sb := GatherStats(g), GatherStats(g2)
		sa.Name, sb.Name = "", ""
		if sa != sb {
			t.Logf("stats changed: %+v vs %+v\ndoc:\n%s", sa, sb, doc)
			return false
		}
		// Idempotence: once blank node names have been normalised by one
		// parse/serialise cycle, further cycles are byte-identical.
		doc2 := FormatNTriples(g2)
		g3, err := ParseNTriplesString(doc2, "rt2")
		if err != nil {
			t.Logf("re-parse 2 failed: %v\ndoc:\n%s", err, doc2)
			return false
		}
		return FormatNTriples(g3) == doc2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
