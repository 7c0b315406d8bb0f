package rdf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// This file implements a Turtle subset (https://www.w3.org/TR/turtle/) —
// the serialisation the evaluation datasets actually ship in (EFO is
// distributed as OWL; curated RDF is overwhelmingly Turtle). Supported:
//
//   - @prefix / @base directives (and their case-insensitive SPARQL forms),
//   - prefixed names and <IRI> references (with \u/\U escapes),
//   - predicate lists (;), object lists (,), the 'a' keyword,
//   - blank node labels (_:x) and anonymous blank nodes ([ ... ]),
//   - short string literals with escapes, long (""" ''') literals,
//     language tags and datatype annotations (folded into the literal
//     value, as in the N-Triples reader),
//   - numeric and boolean literal abbreviations,
//   - comments.
//
// Not supported (rejected with a position-carrying error): RDF collections
// "( ... )" and relative IRI resolution beyond simple concatenation with
// the current @base.
//
// N-Triples is a subset of Turtle, and the terms the two grammars share
// are lexed by one lexer: the N-Triples lineParser (ntriples.go), run over
// the current line of the document, lexes IRIREFs, short strings ('"' and
// '\'' alike), escapes and language tags, and finishes blank labels. Its
// word-at-a-time fast paths and zero-copy views serve Turtle too, and
// views reach the Builder through builderSink, which clones them. The
// lexer runs in its lax mode, so raw control bytes and invalid UTF-8 pass
// into values, while literal suffixes take the strict LANGTAG rule. Only
// long strings, prefixed names, numerics, keywords, '[ ]' and directives
// are lexed here. Two rules stay Turtle's own: a blank label ends at the
// first character outside the PN_CHARS alphabet (lax N-Triples runs it to
// whitespace), and an IRIREF may not hold a raw '{', '}', '|', '^' or '`'.
// The W3C IRIREF rule excludes those in both grammars, but checking them
// in the N-Triples fast path slowed BenchmarkParseNTriples/gtopdb-seq by
// 8-13% on a 2-core Xeon, so the N-Triples reader admits them and Turtle
// checks the raw IRIREF span instead. WriteNTriples escapes all five, so
// its output reads as Turtle.

// turtleParser is a recursive-descent parser over the whole document. The
// embedded lexer's s is the document up to the end of the current line
// (see newline), so the shared lexer stops at a line end as it does in
// N-Triples; only whitespace, comments and long strings cross lines.
type turtleParser struct {
	lineParser
	src      string
	sink     builderSink
	prefixes map[string]string
	base     string
}

// ParseTurtle reads a Turtle document into a validated graph.
func ParseTurtle(r io.Reader, name string) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("turtle: read: %w", err)
	}
	return ParseTurtleString(string(data), name)
}

// ParseTurtleString parses an in-memory Turtle document. Labels never
// alias the document.
func ParseTurtleString(doc, name string) (*Graph, error) {
	b := NewBuilder(name)
	p := &turtleParser{lineParser: lineParser{format: "turtle"}, src: doc, sink: builderSink{b}, prefixes: map[string]string{}}
	p.newline(0)
	if err := p.document(); err != nil {
		return nil, err
	}
	return b.Graph()
}

// newline starts the line at offset i: it advances the line count and
// ends the lexer's view at the line's '\n'.
func (p *turtleParser) newline(i int) {
	p.line++
	p.lineStart = i
	if n := strings.IndexByte(p.src[i:], '\n'); n >= 0 {
		p.s = p.src[:i+n]
	} else {
		p.s = p.src
	}
}

// skipSpace consumes whitespace, line ends and comments.
func (p *turtleParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\r':
			p.pos++
		case '\n':
			p.pos++
			p.newline(p.pos)
		case '#':
			p.pos = len(p.s)
		default:
			return
		}
	}
}

func (p *turtleParser) atEnd() bool {
	p.skipSpace()
	return p.pos >= len(p.src)
}

// expect consumes the given byte or fails.
func (p *turtleParser) expect(c byte) error {
	if p.peek() != c {
		return p.err(fmt.Sprintf("expected %q", string(c)))
	}
	p.pos++
	return nil
}

// peek returns the next non-space byte without consuming it (0 at EOF).
func (p *turtleParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

// hasKeyword case-insensitively matches an alphabetic keyword at the
// current position.
func (p *turtleParser) hasKeyword(kw string) bool {
	p.skipSpace()
	if p.pos+len(kw) > len(p.s) {
		return false
	}
	if !strings.EqualFold(p.s[p.pos:p.pos+len(kw)], kw) {
		return false
	}
	// Must not run into a longer identifier.
	if p.pos+len(kw) < len(p.s) {
		c := p.s[p.pos+len(kw)]
		if isPNChar(rune(c)) || c == ':' {
			return false
		}
	}
	return true
}

func (p *turtleParser) document() error {
	for !p.atEnd() {
		switch {
		case p.peek() == '@':
			if err := p.directive(); err != nil {
				return err
			}
		case p.hasKeyword("prefix"):
			p.pos += len("prefix")
			if err := p.prefixDecl(false); err != nil {
				return err
			}
		case p.hasKeyword("base"):
			p.pos += len("base")
			if err := p.baseDecl(false); err != nil {
				return err
			}
		default:
			if err := p.triples(); err != nil {
				return err
			}
			if err := p.expect('.'); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *turtleParser) directive() error {
	p.pos++ // '@'
	switch {
	case strings.HasPrefix(p.s[p.pos:], "prefix"):
		p.pos += len("prefix")
		return p.prefixDecl(true)
	case strings.HasPrefix(p.s[p.pos:], "base"):
		p.pos += len("base")
		return p.baseDecl(true)
	default:
		return p.err("unknown directive")
	}
}

func (p *turtleParser) prefixDecl(dotted bool) error {
	p.skipSpace()
	// prefix name ends with ':'.
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] != ':' {
		if c := p.s[p.pos]; c == ' ' || c == '\t' || c == '<' {
			return p.err("malformed prefix name")
		}
		p.pos++
	}
	if p.pos >= len(p.s) {
		return p.err("unterminated prefix declaration")
	}
	name := p.s[start:p.pos]
	p.pos++ // ':'
	iri, _, err := p.iriRefValue()
	if err != nil {
		return err
	}
	p.prefixes[name] = iri
	return p.declEnd(dotted)
}

func (p *turtleParser) baseDecl(dotted bool) error {
	iri, _, err := p.iriRefValue()
	if err != nil {
		return err
	}
	p.base = iri
	return p.declEnd(dotted)
}

// declEnd ends a directive: @prefix and @base take a '.', the SPARQL
// forms take none but tolerate one.
func (p *turtleParser) declEnd(dotted bool) error {
	if dotted {
		return p.expect('.')
	}
	if p.peek() == '.' {
		p.pos++
	}
	return nil
}

// triples parses: subject predicateObjectList.
func (p *turtleParser) triples() error {
	subj, err := p.subject()
	if err != nil {
		return err
	}
	return p.predicateObjectList(subj, false)
}

// predicateObjectList parses verb objectList (';' verb objectList)*.
// allowEmpty permits the empty list (inside [ ]).
func (p *turtleParser) predicateObjectList(subj NodeID, allowEmpty bool) error {
	if allowEmpty && (p.peek() == ']' || p.peek() == 0) {
		return nil
	}
	for {
		pred, err := p.verb()
		if err != nil {
			return err
		}
		for {
			obj, err := p.object()
			if err != nil {
				return err
			}
			p.sink.triple(subj, pred, obj)
			if p.peek() != ',' {
				break
			}
			p.pos++
		}
		if p.peek() != ';' {
			return nil
		}
		// Consume one or more semicolons; a trailing ';' before '.' or
		// ']' is legal.
		for p.peek() == ';' {
			p.pos++
		}
		if c := p.peek(); c == '.' || c == ']' || c == 0 {
			return nil
		}
	}
}

const rdfTypeIRI = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

func (p *turtleParser) verb() (NodeID, error) {
	if p.hasKeyword("a") {
		p.pos++
		return p.sink.uriTerm(rdfTypeIRI, true), nil
	}
	return p.iriNode()
}

// atBlankLabel reports whether the cursor sits on a "_:" blank node label
// (a bare '_' can also start a prefixed name).
func (p *turtleParser) atBlankLabel() bool {
	return p.peek() == '_' && strings.HasPrefix(p.s[p.pos:], "_:")
}

func (p *turtleParser) subject() (NodeID, error) {
	switch c := p.peek(); {
	case p.atBlankLabel():
		return p.blankLabelNode()
	case c == '<' || isPNStart(rune(c)) || c == ':':
		return p.iriNode()
	case c == '[':
		return p.anonBlank()
	case c == '(':
		return 0, p.err("RDF collections are not supported by this Turtle subset")
	default:
		return 0, p.err("expected a subject term")
	}
}

func (p *turtleParser) object() (NodeID, error) {
	switch c := p.peek(); {
	case c == '<':
		return p.iriNode()
	case p.atBlankLabel():
		return p.blankLabelNode()
	case c == '[':
		return p.anonBlank()
	case c == '(':
		return 0, p.err("RDF collections are not supported by this Turtle subset")
	case c == '"' || c == '\'':
		v, owned, err := p.stringLiteral()
		if err != nil {
			return 0, err
		}
		return p.sink.literalTerm(v, owned), nil
	case c >= '0' && c <= '9' || c == '+' || c == '-':
		return p.numericLiteral()
	case p.hasKeyword("true"):
		p.pos += 4
		return p.sink.literalTerm("true", true), nil
	case p.hasKeyword("false"):
		p.pos += 5
		return p.sink.literalTerm("false", true), nil
	case isPNStart(rune(c)) || c == ':':
		return p.iriNode()
	default:
		return 0, p.err("expected an object term")
	}
}

// iriNode parses an IRIREF or prefixed name into a URI node.
func (p *turtleParser) iriNode() (NodeID, error) {
	var iri string
	var owned bool
	var err error
	if p.peek() == '<' {
		iri, owned, err = p.iriRefValue()
	} else {
		iri, owned, err = p.prefixedNameValue()
	}
	if err != nil {
		return 0, err
	}
	return p.sink.uriTerm(iri, owned), nil
}

// iriRefValue lexes an IRIREF with the shared lexer, applies Turtle's raw
// '{', '}', '|', '^' and '`' rule to the raw span, and applies the current
// @base to a relative IRI. Resolution is the simple concatenation scheme
// (absolute IRIs — containing a scheme — pass through), which covers the
// @base usage of curated datasets. owned is the lexer's flag: false means
// a view of the document.
func (p *turtleParser) iriRefValue() (iri string, owned bool, err error) {
	if p.peek() != '<' {
		return "", false, p.err("expected '<'")
	}
	start := p.pos
	if iri, owned, err = p.iri(); err != nil {
		return "", false, err
	}
	if i := turtleReserved(p.s[start:p.pos]); i >= 0 {
		p.pos = start + i
		return "", false, p.err(fmt.Sprintf("character %q not allowed in IRI", p.s[p.pos]))
	}
	if p.base == "" || hasScheme(iri) {
		return iri, owned, nil
	}
	return p.base + iri, true, nil
}

// turtleReserved returns the offset of the first '{', '}', '|', '^' or '`'
// in s, or -1. Like iriPlain, it tests a word at a time.
func turtleReserved(s string) int {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := word8(s, i)
		if byteIs(x, '{')|byteIs(x, '}')|byteIs(x, '|')|byteIs(x, '^')|byteIs(x, '`') != 0 {
			break
		}
	}
	for ; i < len(s); i++ {
		switch s[i] {
		case '{', '}', '|', '^', '`':
			return i
		}
	}
	return -1
}

func hasScheme(iri string) bool {
	for i := 0; i < len(iri); i++ {
		c := iri[i]
		if c == ':' {
			return i > 0
		}
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && (c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.')) {
			return false
		}
	}
	return false
}

// prefixedNameValue parses pre:local and resolves it to its IRI without
// creating a node — datatype annotations are folded into the literal
// value and must not intern an isolated URI node as a side effect. An
// empty local name makes the IRI the namespace itself, which may be a
// view of the document, so only a non-empty one is owned.
func (p *turtleParser) prefixedNameValue() (iri string, owned bool, err error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] != ':' {
		r, size := utf8.DecodeRuneInString(p.s[p.pos:])
		if !isPNChar(r) {
			break
		}
		p.pos += size
	}
	if p.pos >= len(p.s) || p.s[p.pos] != ':' {
		return "", false, p.err("expected a prefixed name")
	}
	prefix := p.s[start:p.pos]
	p.pos++ // ':'
	ns, ok := p.prefixes[prefix]
	if !ok {
		return "", false, p.err(fmt.Sprintf("undeclared prefix %q", prefix))
	}
	localStart := p.pos
	for p.pos < len(p.s) {
		r, size := utf8.DecodeRuneInString(p.s[p.pos:])
		if !(isPNChar(r) || r == '.' || r == ':' || r == '%' || r == '-') {
			break
		}
		p.pos += size
	}
	// A trailing '.' terminates the statement, not the name.
	for p.pos > localStart && p.s[p.pos-1] == '.' {
		p.pos--
	}
	local := p.s[localStart:p.pos]
	return ns + local, local != "", nil
}

func isPNStart(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r >= 0x80
}

func isPNChar(r rune) bool {
	return isPNStart(r) || r >= '0' && r <= '9'
}

// blankLabelNode parses a "_:" label (atBlankLabel holds), which ends at
// the first character outside the label alphabet.
func (p *turtleParser) blankLabelNode() (NodeID, error) {
	p.pos += 2
	start := p.pos
	for p.pos < len(p.s) {
		r, size := utf8.DecodeRuneInString(p.s[p.pos:])
		if !(isPNChar(r) || r == '.' || r == '-') {
			break
		}
		p.pos += size
	}
	label, err := p.labelEnd(start)
	if err != nil {
		return 0, err
	}
	return p.sink.blankTerm(label, false), nil
}

// anonBlank parses [ predicateObjectList ]. The node has no label, so it
// can never merge with a labelled blank.
func (p *turtleParser) anonBlank() (NodeID, error) {
	if err := p.expect('['); err != nil {
		return 0, err
	}
	node := p.sink.b.FreshBlank()
	if err := p.predicateObjectList(node, true); err != nil {
		return 0, err
	}
	if err := p.expect(']'); err != nil {
		return 0, err
	}
	return node, nil
}

// stringLiteral parses a short or long string literal with an optional
// LANGTAG or datatype suffix folded into the value.
func (p *turtleParser) stringLiteral() (v string, owned bool, err error) {
	if q := p.s[p.pos]; p.pos+2 < len(p.s) && p.s[p.pos+1] == q && p.s[p.pos+2] == q {
		v, err = p.longString()
		owned = true
	} else {
		v, owned, err = p.quoted(p.s[p.pos])
	}
	if err != nil {
		return "", false, err
	}
	var suffix string
	switch {
	case p.pos < len(p.s) && p.s[p.pos] == '@':
		suffix, err = p.langTag()
	case strings.HasPrefix(p.s[p.pos:], "^^"):
		p.pos += 2
		var dt string
		if p.pos < len(p.s) && p.s[p.pos] == '<' {
			dt, _, err = p.iriRefValue()
		} else {
			dt, _, err = p.prefixedNameValue()
		}
		suffix = "^^<" + dt + ">"
	default:
		return v, owned, nil
	}
	if err != nil {
		return "", false, err
	}
	return v + suffix, true, nil
}

// longString reads a string in triple quotes, which may span lines.
func (p *turtleParser) longString() (string, error) {
	delim := p.s[p.pos : p.pos+3]
	p.pos += 3
	var sb strings.Builder
	for {
		if p.pos >= len(p.src) {
			return "", p.err("unterminated long literal")
		}
		if strings.HasPrefix(p.src[p.pos:], delim) {
			p.pos += 3
			return sb.String(), nil
		}
		switch c := p.src[p.pos]; c {
		case '\\':
			r, err := p.escape()
			if err != nil {
				return "", err
			}
			sb.WriteRune(r)
		case '\n':
			p.newline(p.pos + 1)
			fallthrough
		default:
			sb.WriteByte(c)
			p.pos++
		}
	}
}

// numericLiteral reads an integer/decimal/double token as its lexical form.
func (p *turtleParser) numericLiteral() (NodeID, error) {
	start := p.pos
	if p.s[p.pos] == '+' || p.s[p.pos] == '-' {
		p.pos++
	}
	digits := 0
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c >= '0' && c <= '9' {
			digits++
			p.pos++
			continue
		}
		if c == '.' && p.pos+1 < len(p.s) && p.s[p.pos+1] >= '0' && p.s[p.pos+1] <= '9' {
			p.pos++
			continue
		}
		if (c == 'e' || c == 'E') && digits > 0 {
			p.pos++
			if p.pos < len(p.s) && (p.s[p.pos] == '+' || p.s[p.pos] == '-') {
				p.pos++
			}
			continue
		}
		break
	}
	if digits == 0 {
		return 0, p.err("malformed numeric literal")
	}
	return p.sink.literalTerm(p.s[start:p.pos], false), nil
}

// WriteTurtle serialises g as Turtle: namespaces that occur three or more
// times are given @prefix declarations, triples are grouped by subject with
// ';' predicate lists and ',' object lists, and output order is
// deterministic. Every other term is written as WriteNTriples writes it.
func WriteTurtle(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	prefixes := derivePrefixes(g)
	names := make([]string, 0, len(prefixes))
	for ns := range prefixes {
		names = append(names, ns)
	}
	sort.Strings(names)
	for _, ns := range names {
		bw.WriteString("@prefix " + prefixes[ns] + ": <")
		escapeInto(bw, ns, true)
		bw.WriteString("> .\n")
	}
	if len(names) > 0 {
		bw.WriteByte('\n')
	}

	// term writes n; only a predicate may be written as the keyword 'a'.
	term := func(n NodeID, pred bool) {
		if l := g.Label(n); l.Kind == URI {
			if pred && l.Value == rdfTypeIRI {
				bw.WriteByte('a')
				return
			}
			if ns, local, ok := splitNamespace(l.Value); ok {
				if pre, ok := prefixes[ns]; ok && turtleSafeLocal(local) {
					bw.WriteString(pre + ":" + local)
					return
				}
			}
		}
		writeTerm(bw, g, n, nil)
	}

	// Group triples by subject and predicate while streaming the stored
	// (S, P, O)-sorted order.
	started := false
	var curS, curP NodeID
	g.EachTriple(func(t Triple) bool {
		switch {
		case !started || t.S != curS:
			if started {
				bw.WriteString(" .\n")
			}
			term(t.S, false)
			bw.WriteByte(' ')
			term(t.P, true)
			started = true
		case t.P != curP:
			bw.WriteString(" ;\n    ")
			term(t.P, true)
		default:
			bw.WriteString(",")
		}
		bw.WriteByte(' ')
		term(t.O, false)
		curS, curP = t.S, t.P
		return true
	})
	if started {
		bw.WriteString(" .\n")
	}
	return bw.Flush()
}

// FormatTurtle returns the Turtle serialisation as a string.
func FormatTurtle(g *Graph) string {
	var sb strings.Builder
	if err := WriteTurtle(&sb, g); err != nil {
		panic(err)
	}
	return sb.String()
}

// derivePrefixes assigns short prefixes to namespaces used ≥ 3 times.
func derivePrefixes(g *Graph) map[string]string {
	count := map[string]int{}
	for i := 0; i < g.NumNodes(); i++ {
		l := g.Label(NodeID(i))
		if l.Kind != URI || l.Value == rdfTypeIRI {
			continue
		}
		if ns, local, ok := splitNamespace(l.Value); ok && turtleSafeLocal(local) {
			count[ns]++
		}
	}
	var namespaces []string
	for ns, c := range count {
		if c >= 3 {
			namespaces = append(namespaces, ns)
		}
	}
	sort.Strings(namespaces)
	out := make(map[string]string, len(namespaces))
	for i, ns := range namespaces {
		out[ns] = fmt.Sprintf("ns%d", i+1)
	}
	// Conventional names for well-known vocabularies.
	known := map[string]string{
		"http://www.w3.org/1999/02/22-rdf-syntax-ns#": "rdf",
		"http://www.w3.org/2000/01/rdf-schema#":       "rdfs",
		"http://www.w3.org/2002/07/owl#":              "owl",
		"http://www.w3.org/2004/02/skos/core#":        "skos",
		"http://purl.org/dc/terms/":                   "dcterms",
	}
	for ns, pre := range known {
		if _, ok := out[ns]; ok {
			out[ns] = pre
		}
	}
	return out
}

// splitNamespace splits an IRI at the last '#' or '/'.
func splitNamespace(iri string) (ns, local string, ok bool) {
	idx := strings.LastIndexAny(iri, "#/")
	if idx < 0 || idx == len(iri)-1 {
		return "", "", false
	}
	return iri[:idx+1], iri[idx+1:], true
}

// turtleSafeLocal reports whether a local name can be written as a prefixed
// name without escaping.
func turtleSafeLocal(local string) bool {
	if local == "" {
		return false
	}
	for i, r := range local {
		if i == 0 && !(isPNStart(r) || r >= '0' && r <= '9') {
			return false
		}
		if i > 0 && !(isPNChar(r) || r == '-') {
			return false
		}
	}
	return true
}
