package rdf

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestParseTurtleBasics(t *testing.T) {
	doc := `
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:ss ex:employer ex:ed-uni ;
      ex:address _:b1 .
_:b1 ex:zip "EH8" ;
     ex:city "Edinburgh" .
ex:ed-uni rdfs:label "University of Edinburgh" ;
          a ex:University .
`
	g, err := ParseTurtleString(doc, "ttl")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 6 {
		t.Errorf("triples = %d, want 6\n%s", g.NumTriples(), FormatNTriples(g))
	}
	if _, ok := g.FindURI("http://example.org/ed-uni"); !ok {
		t.Error("prefixed name not expanded")
	}
	if _, ok := g.FindURI(rdfTypeIRI); !ok {
		t.Error("'a' keyword not expanded to rdf:type")
	}
	if g.NumBlanks() != 1 {
		t.Errorf("blanks = %d, want 1", g.NumBlanks())
	}
}

func TestParseTurtleObjectLists(t *testing.T) {
	doc := `@prefix ex: <http://e/> .
ex:s ex:p ex:a, ex:b, "lit" ; ex:q ex:c .`
	g, err := ParseTurtleString(doc, "ttl")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 4 {
		t.Errorf("triples = %d, want 4", g.NumTriples())
	}
}

func TestParseTurtleAnonymousBlanks(t *testing.T) {
	doc := `@prefix ex: <http://e/> .
ex:class ex:subClassOf [ a ex:Restriction ; ex:onProperty ex:partOf ] .
ex:other ex:p [] .`
	g, err := ParseTurtleString(doc, "ttl")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlanks() != 2 {
		t.Errorf("blanks = %d, want 2", g.NumBlanks())
	}
	if g.NumTriples() != 4 {
		t.Errorf("triples = %d, want 4", g.NumTriples())
	}
}

// An anonymous blank has no label, so a labelled blank that happens to be
// called like one stays a different node.
func TestParseTurtleAnonymousBlankKeepsApartFromLabels(t *testing.T) {
	g, err := ParseTurtleString(`_:anon-1 <http://p> [ <http://q> <http://r> ] .`, "ttl")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBlanks() != 2 {
		t.Errorf("blanks = %d, want 2\n%s", g.NumBlanks(), FormatNTriples(g))
	}
	g.EachTriple(func(tr Triple) bool {
		if tr.S == tr.O {
			t.Errorf("self-loop %v\n%s", tr, FormatNTriples(g))
		}
		return true
	})
}

func TestParseTurtleBase(t *testing.T) {
	doc := `@base <http://example.org/> .
<s> <p> <o> .
<s> <p> <http://absolute.example/x> .`
	g, err := ParseTurtleString(doc, "ttl")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.FindURI("http://example.org/s"); !ok {
		t.Error("relative IRI not resolved against @base")
	}
	if _, ok := g.FindURI("http://absolute.example/x"); !ok {
		t.Error("absolute IRI mangled by base resolution")
	}
}

func TestParseTurtleSPARQLDirectives(t *testing.T) {
	doc := `PREFIX ex: <http://e/>
BASE <http://b/>
ex:s ex:p <rel> .`
	g, err := ParseTurtleString(doc, "ttl")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.FindURI("http://b/rel"); !ok {
		t.Errorf("SPARQL-style directives not handled:\n%s", FormatNTriples(g))
	}
}

func TestParseTurtleLiteralForms(t *testing.T) {
	doc := `@prefix ex: <http://e/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:a "plain" ;
     ex:b "escaped \"q\" and \n newline" ;
     ex:c """long
literal""" ;
     ex:d 'single' ;
     ex:e '''long single''' ;
     ex:f "tagged"@en-GB ;
     ex:g "typed"^^xsd:string ;
     ex:h 42 ;
     ex:i -3.14 ;
     ex:j 1e10 ;
     ex:k true ;
     ex:l false ;
     ex:m "x"^^<http://t\u0041> .`
	g, err := ParseTurtleString(doc, "ttl")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"plain", "escaped \"q\" and \n newline", "long\nliteral",
		"single", "long single", "tagged@en-GB",
		"typed^^<http://www.w3.org/2001/XMLSchema#string>",
		"42", "-3.14", "1e10", "true", "false", "x^^<http://tA>",
	} {
		if _, ok := g.FindLiteral(want); !ok {
			t.Errorf("missing literal %q", want)
		}
	}
}

func TestParseTurtleComments(t *testing.T) {
	doc := `# header
@prefix ex: <http://e/> . # trailing
ex:s ex:p ex:o . # done`
	g, err := ParseTurtleString(doc, "ttl")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 1 {
		t.Errorf("triples = %d, want 1", g.NumTriples())
	}
}

func TestParseTurtleErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"undeclared prefix", `ex:s ex:p ex:o .`},
		{"missing dot", `@prefix ex: <http://e/> . ex:s ex:p ex:o`},
		{"collection", `@prefix ex: <http://e/> . ex:s ex:p (1 2) .`},
		{"unterminated literal", `@prefix ex: <http://e/> . ex:s ex:p "x .`},
		{"unterminated long literal", `@prefix ex: <http://e/> . ex:s ex:p """x .`},
		{"unterminated iri", `@prefix ex: <http://e/> . ex:s ex:p <http://x .`},
		{"bad directive", `@nonsense <http://e/> .`},
		{"unterminated anon", `@prefix ex: <http://e/> . ex:s ex:p [ ex:q ex:o .`},
		{"empty blank label", `@prefix ex: <http://e/> . _: ex:p ex:o .`},
		{"literal subject", `@prefix ex: <http://e/> . "s" ex:p ex:o .`},
		{"bad numeric", `@prefix ex: <http://e/> . ex:s ex:p +x .`},
		{"empty iri", `@prefix ex: <http://e/> . ex:s ex:p <> .`},
		{"angle bracket in iri", `<http://a/s> <http://a/p> <http://a/x<y> .`},
		{"raw brace in iri", `<http://a/s> <http://a/p> <http://a/{y}> .`},
		{"raw bar in iri", `<http://a/s> <http://a/p> <http://a/x|y> .`},
		{"line end in iri", "<http://a/s> <http://a/p> <http://a/x\ny> ."},
		{"line end in string", "<http://a/s> <http://a/p> \"x\ny\" ."},
		{"empty language tag", `<http://a/s> <http://a/p> "x"@ .`},
		{"language tag runs into iri", `<http://a/s> <http://a/p> "x"@en<http://a/o> .`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseTurtleString(c.doc, "bad")
			if err == nil {
				t.Fatalf("accepted %q", c.doc)
			}
			if !strings.HasPrefix(err.Error(), "turtle: line ") {
				t.Errorf("error %q does not name the Turtle grammar", err)
			}
		})
	}
}

func TestParseTurtleErrorPositions(t *testing.T) {
	_, err := ParseTurtleString("@prefix ex: <http://e/> .\nex:s ex:p oops .", "pos")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T (%v)", err, err)
	}
	if pe.Line != 2 {
		t.Errorf("line = %d, want 2", pe.Line)
	}
	// An error inside an IRI, which the shared lexer reports.
	line2 := "ex:s ex:p <http://e/a b> ."
	_, err = ParseTurtleString("@prefix ex: <http://e/> .\n"+line2, "pos")
	if pe, ok = err.(*ParseError); !ok {
		t.Fatalf("error type %T (%v)", err, err)
	}
	if want := strings.Index(line2, " b>") + 1; pe.Line != 2 || pe.Col != want {
		t.Errorf("IRI error at line %d col %d, want line 2 col %d (%v)", pe.Line, pe.Col, want, pe)
	}
}

func TestTurtleAgreesWithNTriples(t *testing.T) {
	ttl := `@prefix ex: <http://e/> .
ex:s ex:p ex:o ; ex:q "v" .
_:b ex:p ex:s .`
	nt := `<http://e/s> <http://e/p> <http://e/o> .
<http://e/s> <http://e/q> "v" .
_:b <http://e/p> <http://e/s> .`
	g1, err := ParseTurtleString(ttl, "ttl")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ParseNTriplesString(nt, "nt")
	if err != nil {
		t.Fatal(err)
	}
	if FormatNTriples(g1) != FormatNTriples(g2) {
		t.Errorf("Turtle and N-Triples disagree:\n%s---\n%s", FormatNTriples(g1), FormatNTriples(g2))
	}
}

// TestParsedLabelsDoNotAliasInput checks that no label of a parsed graph
// points into the document: the lexers hand the Builder views of the
// input, and a view kept as a label would pin the whole document.
func TestParsedLabelsDoNotAliasInput(t *testing.T) {
	docs := append([]string(nil), ntSeedDocs...)
	for _, g := range goldenGraphs() {
		docs = append(docs, FormatNTriples(g))
	}
	turtleDocs := []string{
		"@prefix ex: <http://example.org/> .\n@prefix e: <http://e/> .\nex:a ex:p ex:b , ex: , e:x ; ex:q \"lit\"@en , 'single' , 42 , true .\n",
		"@base <http://base/> .\n<rel> <p> <http://abs/o> .\n<s> <p> \"\"\"long\nstring\"\"\" , \"x\"^^<http://t> .\n",
		"<http://a> <http://p> [ <http://q> _:x ] .\n_:x <http://p> \"v\" .\n",
	}
	docs = append(docs, turtleDocs...)
	parsers := map[string]func(string) (*Graph, error){
		"ntriples": func(doc string) (*Graph, error) { return ParseNTriplesString(doc, "nt") },
		"parallel": func(doc string) (*Graph, error) {
			return ParseNTriplesString(doc, "par", WithParseWorkers(3), withParseBlockSize(37))
		},
		"turtle": func(doc string) (*Graph, error) { return ParseTurtleString(doc, "ttl") },
	}
	for name, parse := range parsers {
		for i, doc := range docs {
			g, err := parse(doc)
			if err != nil {
				if name == "turtle" && i >= len(docs)-len(turtleDocs) {
					t.Errorf("turtle: %v", err)
				}
				continue
			}
			lo := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
			hi := lo + uintptr(len(doc))
			for i, l := range g.labels {
				if p := uintptr(unsafe.Pointer(unsafe.StringData(l.Value))); l.Value != "" && lo <= p && p < hi {
					t.Errorf("%s: label %d (%s) points into the document %q", name, i, l, doc)
				}
			}
		}
	}
}

// rdf:type is written as 'a' only where Turtle allows the keyword.
func TestWriteTurtleTypeOutsidePredicate(t *testing.T) {
	b := NewBuilder("type")
	typ := b.URI(rdfTypeIRI)
	b.Triple(typ, typ, b.URI("http://e/Property"))
	b.Triple(b.URI("http://e/s"), b.URI("http://e/p"), typ)
	g := b.MustGraph()
	ttl := FormatTurtle(g)
	g2, err := ParseTurtleString(ttl, "rt")
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, ttl)
	}
	if FormatNTriples(g) != FormatNTriples(g2) {
		t.Errorf("Turtle round trip changed the graph:\n%s", ttl)
	}
}

func TestWriteTurtleRoundTrip(t *testing.T) {
	g := figure2(t)
	ttl := FormatTurtle(g)
	g2, err := ParseTurtleString(ttl, "rt")
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, ttl)
	}
	if FormatNTriples(canonicalize(t, g)) != FormatNTriples(canonicalize(t, g2)) {
		t.Errorf("Turtle round trip changed the graph:\n%s", ttl)
	}
}

// canonicalize normalises node IDs via an N-Triples round trip.
func canonicalize(t testing.TB, g *Graph) *Graph {
	t.Helper()
	out, err := ParseNTriplesString(FormatNTriples(g), "canon")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestWriteTurtleUsesPrefixes(t *testing.T) {
	b := NewBuilder("p")
	s := b.URI("http://example.org/voc/s")
	p := b.URI("http://example.org/voc/p")
	o := b.URI("http://example.org/voc/o")
	b.Triple(s, p, o)
	b.Triple(o, p, s)
	b.Triple(s, b.URI(rdfTypeIRI), o)
	g := b.MustGraph()
	ttl := FormatTurtle(g)
	if !strings.Contains(ttl, "@prefix") {
		t.Errorf("expected a prefix declaration:\n%s", ttl)
	}
	if !strings.Contains(ttl, " a ") {
		t.Errorf("rdf:type should render as 'a':\n%s", ttl)
	}
	if strings.Count(ttl, "http://example.org/voc/") != 1 {
		t.Errorf("namespace should appear once (in @prefix):\n%s", ttl)
	}
}

func TestWriteTurtleRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDocGraph(r)
		ttl := FormatTurtle(g)
		g2, err := ParseTurtleString(ttl, "rt")
		if err != nil {
			t.Logf("re-parse failed: %v\nttl:\n%s", err, ttl)
			return false
		}
		a := FormatNTriples(canonicalize(t, g))
		b := FormatNTriples(canonicalize(t, g2))
		if a != b {
			t.Logf("round trip changed graph:\n%s\nvs\n%s\nttl:\n%s", a, b, ttl)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
