package rdf

import (
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Reference lexer and term-dictionary checks.
//
// The lexer takes IRIs and literal bodies in one IndexByte plus a
// word-at-a-time span check, falling back to the byte loop only when the
// span holds an escape or a byte the grammar treats specially. refIRI and
// refLiteral are that byte loop on its own, as the lexer ran before the
// fast path existed; FuzzLexTerm holds the lexer to them byte for byte.
// FuzzParseNTriples cannot: its one-block and many-block parses share the
// lexer.

// refIRI is the byte-at-a-time reference for lineParser.iri.
func refIRI(p *lineParser) (v string, owned bool, err error) {
	p.pos++ // '<'
	start := p.pos
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

// refLiteral is the byte-at-a-time reference for lineParser.literal.
func refLiteral(p *lineParser) (v string, owned bool, err error) {
	p.pos++ // opening quote
	start := p.pos
	var sb *strings.Builder
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch c {
		case '"':
			var v string
			if sb != nil {
				v = sb.String()
			} else {
				v = p.s[start:p.pos]
			}
			p.pos++
			suffix, err := p.literalSuffix()
			if err != nil {
				return "", false, err
			}
			if suffix == "" {
				return v, sb != nil, nil
			}
			return v + suffix, true, nil
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

// lexResult is everything a term lexer reports: the value, whether it was
// built fresh, where the lexer stopped, and the error text.
type lexResult struct {
	v     string
	owned bool
	pos   int
	err   string
}

func lexWith(f func(*lineParser) (string, bool, error), s string, strict bool) lexResult {
	p := &lineParser{s: s, line: 1, strict: strict}
	v, owned, err := f(p)
	r := lexResult{v: v, owned: owned, pos: p.pos}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// checkLexTerm compares the lexer with the reference on data placed
// after an opening '<' and after an opening '"', in both modes.
func checkLexTerm(t *testing.T, data string) {
	t.Helper()
	for _, strict := range []bool{false, true} {
		iri := "<" + data
		if got, want := lexWith((*lineParser).iri, iri, strict), lexWith(refIRI, iri, strict); got != want {
			t.Errorf("iri(%q) strict=%v = %+v, reference %+v", iri, strict, got, want)
		}
		lit := `"` + data
		if got, want := lexWith((*lineParser).literal, lit, strict), lexWith(refLiteral, lit, strict); got != want {
			t.Errorf("literal(%q) strict=%v = %+v, reference %+v", lit, strict, got, want)
		}
	}
}

// lexSeeds returns term tails for FuzzLexTerm: everything after each '<'
// and '"' of the golden documents (the escaping edge cases the writer
// pins) and of the N-Triples fuzz seeds, plus spans placing each byte
// class the fast path must stop on at every offset of an eight-byte word.
func lexSeeds(f *testing.F) []string {
	docs := append([]string(nil), ntSeedDocs...)
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.nt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		docs = append(docs, string(data))
	}
	var seeds []string
	for _, doc := range docs {
		for _, line := range strings.Split(doc, "\n") {
			for i := 0; i < len(line); i++ {
				if line[i] == '<' || line[i] == '"' {
					seeds = append(seeds, line[i+1:])
				}
			}
		}
	}
	for _, c := range []byte{0, '\t', '\n', 0x1f, ' ', '<', '"', '\\', '>', 0x7f, 0x80, 0xff} {
		for off := 0; off < 17; off++ {
			body := []byte(strings.Repeat("x", 17))
			body[off] = c
			seeds = append(seeds, string(body)+`>" .`, string(body)+`"@en .`)
		}
	}
	return seeds
}

func FuzzLexTerm(f *testing.F) {
	for _, s := range lexSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLexTerm(t, string(data))
	})
}

// collidingTermHash maps every value into one of four buckets, so any
// document with more than four distinct URIs or literals exercises the
// dictionaries' collision path.
func collidingTermHash(v string) uint64 { return maphash.String(termSeed, v) & 3 }

// TestForcedTermHashCollisions parses the golden and fuzz seed documents
// with the real term hash and with collidingTermHash, sequentially and in
// parallel, and requires identical graphs and errors: the hash only
// locates a value and never decides an ID. Every graph, and its Turtle
// re-parse, must also pass the full Validate that Builder.Graph skips the
// uniqueness half of (archive snapshots: unique_test.go).
func TestForcedTermHashCollisions(t *testing.T) {
	docs := append([]string(nil), ntSeedDocs...)
	for _, g := range goldenGraphs() {
		docs = append(docs, FormatNTriples(g))
	}
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "<n%d> <p%d> \"v%d\" .\n<n%d> <q> <n%d> .\n_:b%d <r> <n%d> .\n", i, i%11, i%97, i, (i*7)%300, i%13, i)
	}
	docs = append(docs, sb.String())

	type outcome struct {
		g   *Graph
		err string
	}
	parse := func(doc string, opts ...ParseOption) outcome {
		g, err := ParseNTriplesString(doc, "collide", opts...)
		if err != nil {
			return outcome{err: err.Error()}
		}
		return outcome{g: g}
	}
	want := make([]outcome, len(docs))
	for i, doc := range docs {
		want[i] = parse(doc)
	}
	dups := []Label{URILabel("u"), LiteralLabel("l"), URILabel("v"), LiteralLabel("l"), URILabel("u")}
	wantDupErr := freeze("dups", dups, nil).Validate()

	saved := termHash
	termHash = collidingTermHash
	defer func() { termHash = saved }()

	for i, doc := range docs {
		for _, opts := range [][]ParseOption{nil, {WithParseWorkers(3), withParseBlockSize(37)}} {
			got := parse(doc, opts...)
			if got.err != want[i].err {
				t.Errorf("doc %d, %d options: error %q under colliding hash, %q under real hash", i, len(opts), got.err, want[i].err)
				continue
			}
			if want[i].g == nil {
				continue
			}
			if !graphsIdentical(got.g, want[i].g) {
				t.Errorf("doc %d, %d options: graph differs under colliding hash", i, len(opts))
			}
			// Builder.Graph skips the label-uniqueness pass; the full
			// Validate must still pass, for Turtle re-parses too.
			if err := got.g.Validate(); err != nil {
				t.Errorf("doc %d, %d options: %v", i, len(opts), err)
			}
			ttl, err := ParseTurtleString(FormatTurtle(got.g), "ttl")
			if err != nil {
				t.Fatalf("doc %d: Turtle re-parse: %v", i, err)
			}
			if err := ttl.Validate(); err != nil {
				t.Errorf("doc %d, %d options, Turtle: %v", i, len(opts), err)
			}
		}
	}
	// Ten URIs in at most four buckets: six or more live in the overflow map.
	b := NewBuilder("overflow")
	for i := 0; i < 10; i++ {
		if id := b.URI(fmt.Sprint(i)); id != NodeID(i) || b.URI(fmt.Sprint(i)) != id {
			t.Fatalf("URI %d got node %d under colliding hash", i, id)
		}
	}
	if len(b.uris.overflow) < 10-4 {
		t.Errorf("overflow holds %d URIs, want at least 6 of 10 in 4 buckets", len(b.uris.overflow))
	}
	gotDupErr := freeze("dups", dups, nil).Validate()
	if wantDupErr == nil || gotDupErr == nil || gotDupErr.Error() != wantDupErr.Error() {
		t.Errorf("Validate duplicate-label error: %v under colliding hash, %v under real hash", gotDupErr, wantDupErr)
	}
}
