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

// turtleParser is a recursive-descent parser over the whole document.
type turtleParser struct {
	src      string
	pos      int
	line     int
	lineBase int // byte offset of the current line start
	b        *Builder
	prefixes map[string]string
	base     string
	blankSeq int
}

// ParseTurtle reads a Turtle document into a validated graph.
func ParseTurtle(r io.Reader, name string) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("turtle: read: %w", err)
	}
	return ParseTurtleString(string(data), name)
}

// ParseTurtleString parses an in-memory Turtle document.
func ParseTurtleString(doc, name string) (*Graph, error) {
	p := &turtleParser{
		src:      doc,
		line:     1,
		b:        NewBuilder(name),
		prefixes: map[string]string{},
	}
	if err := p.document(); err != nil {
		return nil, err
	}
	return p.b.Graph()
}

func (p *turtleParser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.line, Col: p.pos - p.lineBase + 1, Msg: fmt.Sprintf(format, args...)}
}

// skipWS consumes whitespace and comments.
func (p *turtleParser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case ' ', '\t', '\r':
			p.pos++
		case '\n':
			p.pos++
			p.line++
			p.lineBase = p.pos
		case '#':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *turtleParser) eof() bool {
	p.skipWS()
	return p.pos >= len(p.src)
}

// expect consumes the given byte or fails.
func (p *turtleParser) expect(c byte) error {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

// peek returns the next non-space byte without consuming it (0 at EOF).
func (p *turtleParser) peek() byte {
	p.skipWS()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

// hasKeyword case-insensitively matches an alphabetic keyword at the
// current position.
func (p *turtleParser) hasKeyword(kw string) bool {
	p.skipWS()
	if p.pos+len(kw) > len(p.src) {
		return false
	}
	if !strings.EqualFold(p.src[p.pos:p.pos+len(kw)], kw) {
		return false
	}
	// Must not run into a longer identifier.
	if p.pos+len(kw) < len(p.src) {
		c := p.src[p.pos+len(kw)]
		if isPNChar(rune(c)) || c == ':' {
			return false
		}
	}
	return true
}

func (p *turtleParser) document() error {
	for !p.eof() {
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
	case strings.HasPrefix(p.src[p.pos:], "prefix"):
		p.pos += len("prefix")
		return p.prefixDecl(true)
	case strings.HasPrefix(p.src[p.pos:], "base"):
		p.pos += len("base")
		return p.baseDecl(true)
	default:
		return p.errf("unknown directive")
	}
}

func (p *turtleParser) prefixDecl(dotted bool) error {
	p.skipWS()
	// prefix name ends with ':'.
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ':' {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '<' {
			return p.errf("malformed prefix name")
		}
		p.pos++
	}
	if p.pos >= len(p.src) {
		return p.errf("unterminated prefix declaration")
	}
	name := p.src[start:p.pos]
	p.pos++ // ':'
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.prefixes[name] = iri
	if dotted {
		return p.expect('.')
	}
	// SPARQL-style PREFIX takes no dot; an optional one is tolerated.
	if p.peek() == '.' {
		p.pos++
	}
	return nil
}

func (p *turtleParser) baseDecl(dotted bool) error {
	iri, err := p.iriRef()
	if err != nil {
		return err
	}
	p.base = iri
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
			p.b.Triple(subj, pred, obj)
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
	p.skipWS()
	if p.hasKeyword("a") {
		p.pos++
		return p.b.URI(rdfTypeIRI), nil
	}
	return p.iriNode()
}

// atBlankLabel reports whether the cursor sits on a "_:" blank node label
// (a bare '_' can also start a prefixed name).
func (p *turtleParser) atBlankLabel() bool {
	p.skipWS()
	return p.pos+1 < len(p.src) && p.src[p.pos] == '_' && p.src[p.pos+1] == ':'
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
		return 0, p.errf("RDF collections are not supported by this Turtle subset")
	default:
		return 0, p.errf("expected a subject term")
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
		return 0, p.errf("RDF collections are not supported by this Turtle subset")
	case c == '"' || c == '\'':
		v, err := p.literal()
		if err != nil {
			return 0, err
		}
		return p.b.Literal(v), nil
	case c >= '0' && c <= '9' || c == '+' || c == '-':
		return p.numericLiteral()
	case p.hasKeyword("true"):
		p.pos += 4
		return p.b.Literal("true"), nil
	case p.hasKeyword("false"):
		p.pos += 5
		return p.b.Literal("false"), nil
	case isPNStart(rune(c)) || c == ':':
		return p.iriNode()
	default:
		return 0, p.errf("expected an object term")
	}
}

// iriNode parses an IRIREF or prefixed name into a URI node.
func (p *turtleParser) iriNode() (NodeID, error) {
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == '<' {
		iri, err := p.iriRef()
		if err != nil {
			return 0, err
		}
		return p.b.URI(iri), nil
	}
	return p.prefixedName()
}

// iriRef parses <...> applying escapes and base resolution.
func (p *turtleParser) iriRef() (string, error) {
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != '<' {
		return "", p.errf("expected '<'")
	}
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case '>':
			p.pos++
			iri := sb.String()
			if iri == "" {
				return "", p.errf("empty IRI")
			}
			return p.resolve(iri), nil
		case '\\':
			r, err := p.escape()
			if err != nil {
				return "", err
			}
			sb.WriteRune(r)
		case ' ', '\t', '\n', '<', '"', '{', '}', '|', '^', '`':
			return "", p.errf("character %q not allowed in IRI", c)
		default:
			sb.WriteByte(c)
			p.pos++
		}
	}
	return "", p.errf("unterminated IRI")
}

// resolve applies the current @base to a relative IRI. Resolution is the
// simple concatenation scheme (absolute IRIs — containing a scheme — pass
// through), which covers the @base usage of curated datasets.
func (p *turtleParser) resolve(iri string) string {
	if p.base == "" || hasScheme(iri) {
		return iri
	}
	return p.base + iri
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

// prefixedName parses pre:local into a URI node.
func (p *turtleParser) prefixedName() (NodeID, error) {
	iri, err := p.prefixedNameValue()
	if err != nil {
		return 0, err
	}
	return p.b.URI(iri), nil
}

// prefixedNameValue parses pre:local and resolves it to its IRI without
// creating a node — datatype annotations are folded into the literal
// value and must not intern an isolated URI node as a side effect.
func (p *turtleParser) prefixedNameValue() (string, error) {
	p.skipWS()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != ':' {
		r, size := utf8.DecodeRuneInString(p.src[p.pos:])
		if !isPNChar(r) {
			break
		}
		p.pos += size
	}
	if p.pos >= len(p.src) || p.src[p.pos] != ':' {
		return "", p.errf("expected a prefixed name")
	}
	prefix := p.src[start:p.pos]
	p.pos++ // ':'
	ns, ok := p.prefixes[prefix]
	if !ok {
		return "", p.errf("undeclared prefix %q", prefix)
	}
	localStart := p.pos
	for p.pos < len(p.src) {
		r, size := utf8.DecodeRuneInString(p.src[p.pos:])
		if !(isPNChar(r) || r == '.' || r == ':' || r == '%' || r == '-') {
			break
		}
		p.pos += size
	}
	local := p.src[localStart:p.pos]
	// A trailing '.' terminates the statement, not the name.
	for strings.HasSuffix(local, ".") {
		local = local[:len(local)-1]
		p.pos--
	}
	return ns + local, nil
}

func isPNStart(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_' || r >= 0x80
}

func isPNChar(r rune) bool {
	return isPNStart(r) || r >= '0' && r <= '9'
}

func (p *turtleParser) blankLabelNode() (NodeID, error) {
	p.skipWS()
	if p.pos+1 >= len(p.src) || p.src[p.pos] != '_' || p.src[p.pos+1] != ':' {
		return 0, p.errf("expected '_:'")
	}
	p.pos += 2
	start := p.pos
	for p.pos < len(p.src) {
		r, size := utf8.DecodeRuneInString(p.src[p.pos:])
		if !(isPNChar(r) || r == '.' || r == '-') {
			break
		}
		p.pos += size
	}
	label := p.src[start:p.pos]
	for strings.HasSuffix(label, ".") {
		label = label[:len(label)-1]
		p.pos--
	}
	if label == "" {
		return 0, p.errf("empty blank node label")
	}
	return p.b.Blank(label), nil
}

// anonBlank parses [ predicateObjectList ].
func (p *turtleParser) anonBlank() (NodeID, error) {
	if err := p.expect('['); err != nil {
		return 0, err
	}
	p.blankSeq++
	node := p.b.Blank(fmt.Sprintf("anon-%d", p.blankSeq))
	if err := p.predicateObjectList(node, true); err != nil {
		return 0, err
	}
	if err := p.expect(']'); err != nil {
		return 0, err
	}
	return node, nil
}

// literal parses short and long string literals with an optional language
// tag or datatype suffix (folded into the value).
func (p *turtleParser) literal() (string, error) {
	p.skipWS()
	quote := p.src[p.pos]
	long := strings.HasPrefix(p.src[p.pos:], strings.Repeat(string(quote), 3))
	var sb strings.Builder
	if long {
		p.pos += 3
		for {
			if p.pos >= len(p.src) {
				return "", p.errf("unterminated long literal")
			}
			if strings.HasPrefix(p.src[p.pos:], strings.Repeat(string(quote), 3)) {
				p.pos += 3
				break
			}
			if p.src[p.pos] == '\\' {
				r, err := p.escape()
				if err != nil {
					return "", err
				}
				sb.WriteRune(r)
				continue
			}
			if p.src[p.pos] == '\n' {
				p.line++
				p.lineBase = p.pos + 1
			}
			sb.WriteByte(p.src[p.pos])
			p.pos++
		}
	} else {
		p.pos++
		for {
			if p.pos >= len(p.src) || p.src[p.pos] == '\n' {
				return "", p.errf("unterminated literal")
			}
			c := p.src[p.pos]
			if c == quote {
				p.pos++
				break
			}
			if c == '\\' {
				r, err := p.escape()
				if err != nil {
					return "", err
				}
				sb.WriteRune(r)
				continue
			}
			sb.WriteByte(c)
			p.pos++
		}
	}
	// Optional suffix.
	if p.pos < len(p.src) && p.src[p.pos] == '@' {
		start := p.pos
		p.pos++
		for p.pos < len(p.src) && (isPNChar(rune(p.src[p.pos])) || p.src[p.pos] == '-') {
			p.pos++
		}
		sb.WriteString(p.src[start:p.pos])
	} else if p.pos+1 < len(p.src) && p.src[p.pos] == '^' && p.src[p.pos+1] == '^' {
		p.pos += 2
		sb.WriteString("^^")
		if p.pos < len(p.src) && p.src[p.pos] == '<' {
			iri, err := p.iriRef()
			if err != nil {
				return "", err
			}
			sb.WriteString("<" + iri + ">")
		} else {
			iri, err := p.prefixedNameValue()
			if err != nil {
				return "", err
			}
			sb.WriteString("<" + iri + ">")
		}
	}
	return sb.String(), nil
}

// numericLiteral reads an integer/decimal/double token as its lexical form.
func (p *turtleParser) numericLiteral() (NodeID, error) {
	p.skipWS()
	start := p.pos
	if p.pos < len(p.src) && (p.src[p.pos] == '+' || p.src[p.pos] == '-') {
		p.pos++
	}
	digits := 0
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c >= '0' && c <= '9' {
			digits++
			p.pos++
			continue
		}
		if c == '.' && p.pos+1 < len(p.src) && p.src[p.pos+1] >= '0' && p.src[p.pos+1] <= '9' {
			p.pos++
			continue
		}
		if (c == 'e' || c == 'E') && digits > 0 {
			p.pos++
			if p.pos < len(p.src) && (p.src[p.pos] == '+' || p.src[p.pos] == '-') {
				p.pos++
			}
			continue
		}
		break
	}
	if digits == 0 {
		return 0, p.errf("malformed numeric literal")
	}
	return p.b.Literal(p.src[start:p.pos]), nil
}

// escape reuses the N-Triples escape decoding on the shared source.
func (p *turtleParser) escape() (rune, error) {
	lp := &lineParser{s: p.src, pos: p.pos, line: p.line}
	r, err := lp.escape()
	if err != nil {
		return 0, p.errf("%s", err.(*ParseError).Msg)
	}
	p.pos = lp.pos
	return r, nil
}

// WriteTurtle serialises g as Turtle: namespaces that occur three or more
// times are given @prefix declarations, triples are grouped by subject with
// ';' predicate lists and ',' object lists, and output order is
// deterministic.
func WriteTurtle(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	prefixes := derivePrefixes(g)
	names := make([]string, 0, len(prefixes))
	for ns := range prefixes {
		names = append(names, ns)
	}
	sort.Strings(names)
	for _, ns := range names {
		fmt.Fprintf(bw, "@prefix %s: <%s> .\n", prefixes[ns], ns)
	}
	if len(names) > 0 {
		bw.WriteByte('\n')
	}

	term := func(n NodeID) string {
		l := g.Label(n)
		switch l.Kind {
		case URI:
			if l.Value == rdfTypeIRI {
				return "a"
			}
			if ns, local, ok := splitNamespace(l.Value); ok {
				if pre, ok := prefixes[ns]; ok && turtleSafeLocal(local) {
					return pre + ":" + local
				}
			}
			var sb strings.Builder
			sb.WriteByte('<')
			escapeIRITurtle(&sb, l.Value)
			sb.WriteByte('>')
			return sb.String()
		case Literal:
			var sb strings.Builder
			sb.WriteByte('"')
			escapeLiteralTurtle(&sb, l.Value)
			sb.WriteByte('"')
			return sb.String()
		default:
			return fmt.Sprintf("_:b%d", n)
		}
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
			fmt.Fprintf(bw, "%s ", term(t.S))
			fmt.Fprintf(bw, "%s ", term(t.P))
			started = true
		case t.P != curP:
			bw.WriteString(" ;\n    ")
			fmt.Fprintf(bw, "%s ", term(t.P))
		default:
			bw.WriteString(", ")
		}
		bw.WriteString(term(t.O))
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

// escapeIRITurtle and escapeLiteralTurtle scan bytewise: every character
// that needs escaping is ASCII, and clean spans (including invalid UTF-8
// a lax parse admitted) are copied through verbatim, keeping the round
// trip lossless at the byte level.
func escapeIRITurtle(sb *strings.Builder, s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c <= 0x20:
		case c == '<', c == '>', c == '"', c == '{', c == '}', c == '|', c == '^', c == '`', c == '\\':
		default:
			continue
		}
		sb.WriteString(s[start:i])
		fmt.Fprintf(sb, "\\u%04X", c)
		start = i + 1
	}
	sb.WriteString(s[start:])
}

func escapeLiteralTurtle(sb *strings.Builder, s string) {
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '\\' && c != '"' {
			continue
		}
		sb.WriteString(s[start:i])
		switch c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			fmt.Fprintf(sb, "\\u%04X", c)
		}
		start = i + 1
	}
	sb.WriteString(s[start:])
}
