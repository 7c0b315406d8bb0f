package rdf

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// This file implements reading of the N-Triples syntax
// (https://www.w3.org/TR/n-triples/), the line-oriented RDF serialisation
// used to exchange the evaluation datasets. The subset implemented covers
// everything the alignment data model can represent:
//
//	<uri> <uri> <uri> .
//	<uri> <uri> "literal" .
//	<uri> <uri> _:blank .
//	_:blank <uri> <uri> .          (etc.)
//
// Comments (# ...) and blank lines are accepted. Literal language tags and
// datatype IRIs are parsed and folded into the literal value (`"v"@en`
// keeps the tag as part of the value), since the paper's data model has
// plain string literals only.
//
// lineParser is also the term lexer of the Turtle reader (turtle.go),
// which runs it over a whole document: IRIREF, quoted strings, escapes,
// language tags and blank-label ends are lexed by the code below in both
// grammars.
//
// Input is consumed in line-boundary-aligned blocks (scan.go); with
// WithParseWorkers(n > 1) blocks are parsed concurrently and merged in
// block order (parallel.go), producing a graph bit-identical to the
// sequential parse. Serialisation lives in writer.go.

// ParseError describes a syntax error with its input position. Line
// numbers are global 1-based document positions regardless of how the
// input was split into blocks or how many parse workers ran.
type ParseError struct {
	Line int    // 1-based line number
	Col  int    // 1-based byte offset within the line
	Msg  string // description of the problem
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// ParseNTriples reads an N-Triples document and builds a validated Graph
// with the given diagnostic name. By default the document is parsed
// sequentially; WithParseWorkers enables the parallel block pipeline and
// WithStrictMode tightens the accepted dialect. The resulting graph —
// node IDs, labels and triples — does not depend on the worker count or
// block size.
func ParseNTriples(r io.Reader, name string, opts ...ParseOption) (*Graph, error) {
	o := resolveParseOpts(opts)
	return parseNTriplesScanner(newBlockScanner(r, o.blockSize), name, o)
}

// ParseNTriplesString is ParseNTriples over an in-memory document. Blocks
// are zero-copy views of the document, so no input bytes are copied
// (label strings are still cloned out, never aliasing the document).
func ParseNTriplesString(doc, name string, opts ...ParseOption) (*Graph, error) {
	o := resolveParseOpts(opts)
	return parseNTriplesScanner(newBlockScannerString(doc, o.blockSize), name, o)
}

func parseNTriplesScanner(sc *blockScanner, name string, o parseOpts) (*Graph, error) {
	if o.workers > 1 {
		return parseNTriplesParallel(sc, name, o)
	}
	return parseNTriplesSeq(sc, name, o)
}

type lineParser struct {
	s         string
	pos       int
	line      int
	lineStart int // offset of the line's first byte in s (Turtle lexes a whole document)
	strict    bool
}

func (p *lineParser) err(msg string) error {
	return &ParseError{Line: p.line, Col: p.pos - p.lineStart + 1, Msg: msg}
}

func (p *lineParser) skipWS() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *lineParser) eof() bool { return p.pos >= len(p.s) }

// parseLineInto parses one line into the sink. Blank lines and comments
// are skipped.
func parseLineInto(sink termSink, line string, lineNo int, strict bool) error {
	p := &lineParser{s: line, line: lineNo, strict: strict}
	p.skipWS()
	if p.eof() || p.s[p.pos] == '#' {
		return nil
	}
	s, err := p.term(sink, false)
	if err != nil {
		return err
	}
	p.skipWS()
	pr, err := p.term(sink, false)
	if err != nil {
		return err
	}
	p.skipWS()
	o, err := p.term(sink, true)
	if err != nil {
		return err
	}
	p.skipWS()
	if p.eof() || p.s[p.pos] != '.' {
		return p.err("expected '.' terminator")
	}
	p.pos++
	p.skipWS()
	if !p.eof() && p.s[p.pos] != '#' {
		return p.err("unexpected trailing content after '.'")
	}
	sink.triple(s, pr, o)
	return nil
}

// term parses one RDF term. Literals are only admitted when object is true.
func (p *lineParser) term(sink termSink, object bool) (NodeID, error) {
	if p.eof() {
		return 0, p.err("unexpected end of line, expected a term")
	}
	switch p.s[p.pos] {
	case '<':
		v, owned, err := p.iri()
		if err != nil {
			return 0, err
		}
		if err := p.checkUTF8(v, "IRI"); err != nil {
			return 0, err
		}
		return sink.uriTerm(v, owned), nil
	case '_':
		v, err := p.blankLabel()
		if err != nil {
			return 0, err
		}
		return sink.blankTerm(v, false), nil
	case '"':
		if !object {
			return 0, p.err("literal not allowed in subject or predicate position")
		}
		v, owned, err := p.literal()
		if err != nil {
			return 0, err
		}
		if err := p.checkUTF8(v, "literal"); err != nil {
			return 0, err
		}
		return sink.literalTerm(v, owned), nil
	default:
		return 0, p.err(fmt.Sprintf("unexpected character %q at start of term", p.s[p.pos]))
	}
}

// checkUTF8 enforces the strict-mode encoding requirement on a finished
// term value. Escape sequences are validated as they decode, so this only
// rejects raw invalid bytes from the input (which lax mode preserves).
func (p *lineParser) checkUTF8(v, what string) error {
	if p.strict && !utf8.ValidString(v) {
		return p.err("invalid UTF-8 in " + what)
	}
	return nil
}

// iri parses <...>. The owned result reports whether the returned string
// was freshly built (escape decoding) or is a view into the line.
//
// The common IRI — no escape, nothing the grammar rejects — is found with
// one IndexByte for the closing '>' and one word-at-a-time check of the
// span. Any other IRI takes the byte-at-a-time loop from its start, which
// decodes escapes and reports every error at its exact column.
func (p *lineParser) iri() (v string, owned bool, err error) {
	p.pos++ // '<'
	start := p.pos
	if n := strings.IndexByte(p.s[start:], '>'); n >= 0 && iriPlain(p.s[start:start+n]) {
		p.pos += n + 1
		if n == 0 {
			return "", false, p.err("empty IRI")
		}
		return p.s[start : start+n], false, nil
	}
	var sb *strings.Builder
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch c {
		case '>':
			var v string
			if sb != nil {
				v = sb.String()
			} else {
				v = p.s[start:p.pos]
			}
			p.pos++
			if v == "" {
				return "", false, p.err("empty IRI")
			}
			return v, sb != nil, nil
		case '\\':
			if sb == nil {
				sb = &strings.Builder{}
				sb.WriteString(p.s[start:p.pos])
			}
			r, err := p.escape()
			if err != nil {
				return "", false, err
			}
			sb.WriteRune(r)
		case ' ', '\t', '<', '"':
			return "", false, p.err(fmt.Sprintf("character %q not allowed in IRI", c))
		default:
			if p.strict && c < 0x20 {
				return "", false, p.err("raw control character in IRI (use \\u escape)")
			}
			if sb != nil {
				sb.WriteByte(c)
			}
			p.pos++
		}
	}
	return "", false, p.err("unterminated IRI")
}

// Word-at-a-time span checks for the lexer's fast paths. Each loads eight
// bytes as one little-endian word and tests all of them at once with the
// classic SWAR predicates (exact for "some byte matches", which is all the
// lexer asks). A span that fails the check is not necessarily wrong — it
// only has to take the byte loop.
const (
	swarLo = 0x0101010101010101
	swarHi = 0x8080808080808080
)

// word8 reads s[i:i+8] as a little-endian word; the compiler folds the
// byte loads into one.
func word8(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// byteBelow has the high bit set in some byte iff a byte of x is below n
// (n <= 0x80).
func byteBelow(x uint64, n byte) uint64 { return (x - swarLo*uint64(n)) &^ x & swarHi }

// byteIs has the high bit set in some byte iff a byte of x equals c.
func byteIs(x uint64, c byte) uint64 { return byteBelow(x^(swarLo*uint64(c)), 1) }

// iriPlain reports whether the IRI body s (the bytes between '<' and the
// first '>') is accepted verbatim by the byte loop in every mode: it holds
// no space, tab or control character (nothing below 0x21), '<', '"' or
// '\\'.
func iriPlain(s string) bool {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := word8(s, i)
		if byteBelow(x, 0x21)|byteIs(x, '<')|byteIs(x, '"')|byteIs(x, '\\') != 0 {
			return false
		}
	}
	for ; i < len(s); i++ {
		if c := s[i]; c < 0x21 || c == '<' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// literalPlain is iriPlain for a literal body (the bytes between the
// opening quote and the next '"'): it holds no control character and no
// '\\'.
func literalPlain(s string) bool {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		if x := word8(s, i); byteBelow(x, 0x20)|byteIs(x, '\\') != 0 {
			return false
		}
	}
	for ; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '\\' {
			return false
		}
	}
	return true
}

func (p *lineParser) blankLabel() (string, error) {
	if p.pos+1 >= len(p.s) || p.s[p.pos+1] != ':' {
		return "", p.err("expected '_:' to start a blank node")
	}
	p.pos += 2
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] != ' ' && p.s[p.pos] != '\t' {
		p.pos++
	}
	label, err := p.labelEnd(start)
	if err == nil && p.strict {
		err = p.checkBlankLabel(label)
	}
	return label, err
}

// labelEnd finishes a blank label that runs from start to p.pos, where
// each dialect's end rule stopped it. A label never ends in '.' (as in the
// W3C BLANK_NODE_LABEL): trailing dots belong to the statement, so "_:a."
// is the label "a" followed by the terminator, and every accepted label
// can be written back as "_:label ." and read again.
func (p *lineParser) labelEnd(start int) (string, error) {
	for p.pos > start && p.s[p.pos-1] == '.' {
		p.pos--
	}
	if p.pos == start {
		return "", p.err("empty blank node label")
	}
	return p.s[start:p.pos], nil
}

// checkBlankLabel enforces the strict-mode label alphabet: an
// approximation of the W3C BLANK_NODE_LABEL production over ASCII.
func (p *lineParser) checkBlankLabel(label string) error {
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_':
		case (c == '-' || c == '.') && i > 0:
		default:
			return p.err(fmt.Sprintf("character %q not allowed in blank node label", c))
		}
	}
	if label[len(label)-1] == '.' {
		return p.err("blank node label must not end with '.'")
	}
	return nil
}

// literal parses a quoted literal with its optional language-tag or
// datatype suffix folded in. The owned result reports whether the value
// required fresh allocation or is a view into the line.
func (p *lineParser) literal() (v string, owned bool, err error) {
	v, owned, err = p.quoted('"')
	if err != nil {
		return "", false, err
	}
	suffix, err := p.literalSuffix()
	switch {
	case err != nil:
		return "", false, err
	case suffix == "":
		return v, owned, nil
	}
	return v + suffix, true, nil
}

// quoted lexes a short string body closed by the quote byte q (a double
// quote, or in Turtle also a single quote) and decodes its escapes. Like
// iri, a body without escapes or control characters is taken in one scan;
// any other body takes the byte-at-a-time loop from its start.
func (p *lineParser) quoted(q byte) (v string, owned bool, err error) {
	p.pos++ // opening quote
	start := p.pos
	if n := strings.IndexByte(p.s[start:], q); n >= 0 && literalPlain(p.s[start:start+n]) {
		p.pos += n + 1
		return p.s[start : start+n], false, nil
	}
	var sb *strings.Builder
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch c {
		case q:
			p.pos++
			if sb != nil {
				return sb.String(), true, nil
			}
			return p.s[start : p.pos-1], false, nil
		case '\\':
			if sb == nil {
				sb = &strings.Builder{}
				sb.WriteString(p.s[start:p.pos])
			}
			r, err := p.escape()
			if err != nil {
				return "", false, err
			}
			sb.WriteRune(r)
		default:
			if p.strict && c < 0x20 {
				return "", false, p.err("raw control character in literal (use \\u escape)")
			}
			if sb != nil {
				sb.WriteByte(c)
			}
			p.pos++
		}
	}
	return "", false, p.err("unterminated literal")
}

// literalSuffix consumes an optional language tag or datatype annotation
// and returns its text, which is folded into the literal value so that
// round-tripping through our plain-literal model stays lossless enough for
// alignment purposes. A datatype IRIREF is lexed by iri in every mode, so
// its escapes decode as in any other IRI. Strict mode, like Turtle, takes
// a tag as a LANGTAG and requires an IRIREF after "^^"; lax mode keeps any
// other suffix verbatim up to the next space or tab. Neither a LANGTAG nor
// an IRIREF ends in '.', so trailing dots belong to the statement, as
// after a blank label: "x"@en. is the tag "@en" followed by the
// terminator.
func (p *lineParser) literalSuffix() (string, error) {
	start := p.pos
	switch {
	case p.pos >= len(p.s):
		return "", nil
	case p.s[p.pos] == '@':
		if p.strict {
			return p.langTag()
		}
		p.pos++
	case strings.HasPrefix(p.s[p.pos:], "^^"):
		p.pos += 2
		if p.pos < len(p.s) && p.s[p.pos] == '<' {
			v, owned, err := p.iri()
			switch {
			case err != nil:
				return "", err
			case !owned:
				return p.s[start:p.pos], nil
			}
			return "^^<" + v + ">", nil
		}
		if p.strict {
			return "", p.err("expected '<' to start a datatype IRI")
		}
	default:
		return "", nil
	}
	for p.pos < len(p.s) && p.s[p.pos] != ' ' && p.s[p.pos] != '\t' {
		p.pos++
	}
	for p.pos > start && p.s[p.pos-1] == '.' {
		p.pos--
	}
	return p.s[start:p.pos], nil
}

// langTag lexes a LANGTAG, @[A-Za-z]+(-[A-Za-z0-9]+)*, as a view of the
// input. A '-' not followed by a letter or digit is left for the caller.
func (p *lineParser) langTag() (string, error) {
	start := p.pos
	p.pos++ // '@'
	for sub := 0; ; sub++ {
		from := p.pos
		for p.pos < len(p.s) && (asciiLetter(p.s[p.pos]) || sub > 0 && '0' <= p.s[p.pos] && p.s[p.pos] <= '9') {
			p.pos++
		}
		if p.pos == from {
			if sub == 0 {
				return "", p.err("expected a language tag after '@'")
			}
			p.pos-- // the '-'
			break
		}
		if p.pos == len(p.s) || p.s[p.pos] != '-' {
			break
		}
		p.pos++
	}
	return p.s[start:p.pos], nil
}

func asciiLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

// escape consumes a backslash escape sequence and returns the decoded rune.
func (p *lineParser) escape() (rune, error) {
	p.pos++ // '\'
	if p.eof() {
		return 0, p.err("dangling backslash")
	}
	c := p.s[p.pos]
	p.pos++
	switch c {
	case 't':
		return '\t', nil
	case 'b':
		return '\b', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 'f':
		return '\f', nil
	case '"':
		return '"', nil
	case '\'':
		return '\'', nil
	case '\\':
		return '\\', nil
	case 'u':
		return p.hexRune(4)
	case 'U':
		return p.hexRune(8)
	default:
		return 0, p.err(fmt.Sprintf("unknown escape \\%c", c))
	}
}

func (p *lineParser) hexRune(n int) (rune, error) {
	if p.pos+n > len(p.s) {
		return 0, p.err("truncated unicode escape")
	}
	var v rune
	for i := 0; i < n; i++ {
		c := p.s[p.pos+i]
		var d rune
		switch {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		default:
			return 0, p.err(fmt.Sprintf("invalid hex digit %q in unicode escape", c))
		}
		v = v<<4 | d
	}
	p.pos += n
	if !utf8.ValidRune(v) {
		return 0, p.err("escape is not a valid unicode code point")
	}
	return v, nil
}
