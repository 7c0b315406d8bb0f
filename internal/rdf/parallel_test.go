package rdf

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// graphsIdentical reports whether two graphs are bit-identical in the
// sense the parallel pipeline guarantees: same labels in the same NodeID
// order and the same triple list. Diagnostic names are ignored.
func graphsIdentical(a, b *Graph) bool {
	at, bt := a.Triples(), b.Triples()
	if len(a.labels) != len(b.labels) || len(at) != len(bt) {
		return false
	}
	for i := range a.labels {
		if a.labels[i] != b.labels[i] {
			return false
		}
	}
	for i := range at {
		if at[i] != bt[i] {
			return false
		}
	}
	return true
}

// parallelConfigs is the worker-count × block-size grid the equivalence
// tests sweep. Tiny blocks force documents of a few lines across many
// blocks, exercising cross-block interning and out-of-order commits.
var parallelConfigs = []struct {
	workers, block int
}{
	{2, 16},
	{3, 64},
	{4, 31},
	{8, 256},
	{4, 1 << 20},
}

func assertParallelMatchesSequential(t *testing.T, doc string) {
	t.Helper()
	// One diagnostic name throughout: validation errors embed it, and
	// error strings are compared exactly.
	seq, seqErr := ParseNTriplesString(doc, "g")
	for _, cfg := range parallelConfigs {
		par, parErr := ParseNTriplesString(doc, "g",
			WithParseWorkers(cfg.workers), withParseBlockSize(cfg.block))
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("workers=%d block=%d: sequential err %v, parallel err %v",
				cfg.workers, cfg.block, seqErr, parErr)
		}
		if seqErr != nil {
			if seqErr.Error() != parErr.Error() {
				t.Fatalf("workers=%d block=%d: error mismatch:\nsequential: %v\nparallel:   %v",
					cfg.workers, cfg.block, seqErr, parErr)
			}
			continue
		}
		if !graphsIdentical(seq, par) {
			t.Fatalf("workers=%d block=%d: parallel parse differs from sequential\nseq:\n%s\npar:\n%s",
				cfg.workers, cfg.block, FormatNTriples(seq), FormatNTriples(par))
		}
		// The io.Reader scanner frames blocks differently from the
		// zero-copy string scanner; results must agree regardless.
		rpar, rparErr := ParseNTriples(strings.NewReader(doc), "g",
			WithParseWorkers(cfg.workers), withParseBlockSize(cfg.block))
		if (seqErr == nil) != (rparErr == nil) ||
			(seqErr != nil && seqErr.Error() != rparErr.Error()) {
			t.Fatalf("workers=%d block=%d: reader-mode error mismatch: %v vs %v",
				cfg.workers, cfg.block, seqErr, rparErr)
		}
		if seqErr == nil && !graphsIdentical(seq, rpar) {
			t.Fatalf("workers=%d block=%d: reader-mode parallel parse differs", cfg.workers, cfg.block)
		}
	}
}

func TestParallelParseMatchesSequential(t *testing.T) {
	docs := map[string]string{
		"figure1": `
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
`,
		"cross-block blanks": strings.Repeat("_:x <p> _:y .\n_:y <q> _:x .\n", 40),
		"duplicate triples":  strings.Repeat("<a> <p> <b> .\n", 100),
		"escapes and tags": `<s> <p> "line\nbreak \"q\" \U0001F600" .
<s> <q> "chat"@fr .
<s> <r> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<s> <iri\u0020esc> <o> .
`,
		"comments and blanks": "\n# c\n<s> <p> <o> . # t\n\n   \t\n# d\n",
		"crlf":                "<a> <p> <b> .\r\n<b> <p> <c> .\r\n",
		"no final newline":    "<a> <p> <b> .\n<b> <p> \"x\"",
		"empty":               "",
		"only comments":       "# a\n# b\n",
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) { assertParallelMatchesSequential(t, doc) })
	}
}

// TestParallelParseSharedTermsAcrossBlocks pins the determinism contract
// directly: a term first seen in block k and reused in every later block
// must get the NodeID of its first document occurrence.
func TestParallelParseSharedTermsAcrossBlocks(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		// Every line reuses <hub> and introduces a fresh URI and literal,
		// with a rotating set of blank labels shared across lines.
		fmt.Fprintf(&sb, "<hub> <p%d> <n%d> .\n<n%d> <val> \"lit %d\" .\n_:b%d <ref> <hub> .\n",
			i%7, i, i, i, i%5)
	}
	assertParallelMatchesSequential(t, sb.String())
}

func TestParallelParseRandomDocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		doc := FormatNTriples(randomDocGraph(r))
		assertParallelMatchesSequential(t, doc)
	}
}

// TestParallelParseErrorLineNumbers is the regression test for global
// 1-based line numbers under parallel parsing: a syntax error in the
// first, a middle, and the last block must report the same position the
// sequential parse reports.
func TestParallelParseErrorLineNumbers(t *testing.T) {
	goodLine := "<s> <p> \"ok\" .\n" // 15 bytes
	makeDoc := func(total, badAt int) string {
		var sb strings.Builder
		for i := 1; i <= total; i++ {
			if i == badAt {
				sb.WriteString("<s> <p> oops .\n")
			} else {
				sb.WriteString(goodLine)
			}
		}
		return sb.String()
	}
	const total = 90
	// Block size of 64 bytes ≈ 4 lines per block, so line 2 is in the
	// first block, line 45 in a middle block, line 90 in the last.
	for _, badAt := range []int{2, 45, total} {
		t.Run(fmt.Sprintf("bad line %d", badAt), func(t *testing.T) {
			doc := makeDoc(total, badAt)
			for _, workers := range []int{2, 4, 8} {
				_, err := ParseNTriplesString(doc, "err",
					WithParseWorkers(workers), withParseBlockSize(64))
				pe, ok := err.(*ParseError)
				if !ok {
					t.Fatalf("workers=%d: error type %T (%v), want *ParseError", workers, err, err)
				}
				if pe.Line != badAt {
					t.Errorf("workers=%d: error line = %d, want %d", workers, pe.Line, badAt)
				}
				seqErr := mustErr(t, doc)
				if err.Error() != seqErr.Error() {
					t.Errorf("workers=%d: error %q, sequential %q", workers, err, seqErr)
				}
			}
		})
	}
}

func mustErr(t *testing.T, doc string) error {
	t.Helper()
	_, err := ParseNTriplesString(doc, "seq-err")
	if err == nil {
		t.Fatal("sequential parse unexpectedly succeeded")
	}
	return err
}

// TestParallelParseFirstErrorWins: with errors in several blocks, the
// error reported is the first in document order, whatever order workers
// finish in.
func TestParallelParseFirstErrorWins(t *testing.T) {
	var sb strings.Builder
	bad := []int{17, 40, 71}
	for i := 1; i <= 80; i++ {
		isBad := false
		for _, b := range bad {
			if i == b {
				isBad = true
			}
		}
		if isBad {
			sb.WriteString("<s> <p> ! .\n")
		} else {
			sb.WriteString("<s> <p> \"ok\" .\n")
		}
	}
	for i := 0; i < 20; i++ { // repeat: worker scheduling varies
		_, err := ParseNTriplesString(sb.String(), "multi",
			WithParseWorkers(4), withParseBlockSize(32))
		pe, ok := err.(*ParseError)
		if !ok {
			t.Fatalf("error type %T (%v), want *ParseError", err, err)
		}
		if pe.Line != bad[0] {
			t.Fatalf("error line = %d, want %d (first error in document order)", pe.Line, bad[0])
		}
	}
}

func TestParseStrictMode(t *testing.T) {
	accepted := []string{
		"<s> <p> \"tab\\tok\" .\n",
		"<s> <p> _:label-9.x .\n",
		"<s> <p> \"é 😀\" .\n",
	}
	for _, doc := range accepted {
		if _, err := ParseNTriplesString(doc, "strict-ok", WithStrictMode()); err != nil {
			t.Errorf("strict mode rejected %q: %v", doc, err)
		}
	}
	rejected := []string{
		"<s> <p> \"raw\ttab\" .\n",          // raw control character in literal
		"<s\x01> <p> <o> .\n",               // raw control character in IRI
		"<s> <p> \"bad\xffutf8\" .\n",       // invalid UTF-8 in literal
		"<s\xc3\x28> <p> <o> .\n",           // invalid UTF-8 in IRI
		"<s> <p> _:la&bel .\n",              // bad blank label character
		"<s> <p> _:-x .\n",                  // label must not start with '-'
		"<s> <p> \"\\u0041\x19suffix\" .\n", // control after escape
		"<s> <p> \"v\"@e\x01n .\n",          // raw control in language tag
		"<s> <p> \"v\"^^<t\x02> .\n",        // raw control in datatype suffix
		"<s> <p> \"x\"@en<foo> .\n",         // a LANGTAG ends at '<'
		"<s> <p> \"x\"@ .\n",                // empty language tag
		"<s> <p> \"x\"^^xsd:int .\n",        // datatype must be an IRIREF
	}
	for _, doc := range rejected {
		if _, err := ParseNTriplesString(doc, "strict-bad", WithStrictMode()); err == nil {
			t.Errorf("strict mode accepted %q", doc)
		}
		// Lax mode accepts everything strict mode does and more: each of
		// these parses (byte-preservingly) without strict.
		if _, err := ParseNTriplesString(doc, "lax"); err != nil {
			t.Errorf("lax mode rejected %q: %v", doc, err)
		}
	}
	// Strict parallel ≡ strict sequential, including the error position.
	doc := strings.Repeat("<s> <p> \"ok\" .\n", 20) + "<s> <p> \"raw\ttab\" .\n"
	seqErr := func() error {
		_, err := ParseNTriplesString(doc, "s", WithStrictMode())
		return err
	}()
	_, parErr := ParseNTriplesString(doc, "p", WithStrictMode(),
		WithParseWorkers(4), withParseBlockSize(32))
	if seqErr == nil || parErr == nil || seqErr.Error() != parErr.Error() {
		t.Errorf("strict errors differ: sequential %v, parallel %v", seqErr, parErr)
	}
}

func TestParseWorkersAllCores(t *testing.T) {
	doc := strings.Repeat("<a> <p> <b> .\n", 64)
	g, err := ParseNTriplesString(doc, "auto", WithParseWorkers(-1), withParseBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ParseNTriplesString(doc, "seq")
	if err != nil {
		t.Fatal(err)
	}
	if !graphsIdentical(g, seq) {
		t.Error("WithParseWorkers(-1) differs from sequential")
	}
}

func TestBlockScannerBoundaries(t *testing.T) {
	mk := func(lines ...string) string { return strings.Join(lines, "") }
	cases := []struct {
		name  string
		doc   string
		block int
		want  []string // expected block contents
	}{
		{"split mid line", mk("aaaa\n", "bbbb\n", "cccc\n"), 7, []string{"aaaa\n", "bbbb\n", "cccc\n"}},
		{"exact boundary", mk("aaaa\n", "bbbb\n"), 5, []string{"aaaa\n", "bbbb\n"}},
		{"no trailing newline", "aaaa\nbb", 5, []string{"aaaa\n", "bb"}},
		{"single unterminated", "abc", 64, []string{"abc"}},
		// A line longer than the block size grows the block until its
		// newline; already-read shorter lines ride along in the same block.
		{"line longer than block", "aaaaaaaaaa\nbb\n", 4, []string{"aaaaaaaaaa\nbb\n"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := newBlockScanner(strings.NewReader(c.doc), c.block)
			var got []string
			var lines []int
			for {
				blk, ok := sc.next()
				if !ok {
					break
				}
				if blk.readErr != nil {
					t.Fatalf("read error: %v", blk.readErr)
				}
				got = append(got, blk.data)
				lines = append(lines, blk.startLine)
			}
			if len(got) != len(c.want) {
				t.Fatalf("blocks = %q, want %q", got, c.want)
			}
			wantLine := 1
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("block %d = %q, want %q", i, got[i], c.want[i])
				}
				if lines[i] != wantLine {
					t.Errorf("block %d startLine = %d, want %d", i, lines[i], wantLine)
				}
				wantLine += strings.Count(got[i], "\n")
			}
		})
	}
}

func TestBlockScannerStringMode(t *testing.T) {
	doc := "aaaa\nbbbb\ncccc\ndd"
	sc := newBlockScannerString(doc, 7)
	var got []string
	var lines []int
	for {
		blk, ok := sc.next()
		if !ok {
			break
		}
		got = append(got, blk.data)
		lines = append(lines, blk.startLine)
	}
	// Zero-copy framing: cut at the last newline within the first 7
	// bytes of the remainder; a remainder no larger than the block size
	// is emitted whole.
	want := []string{"aaaa\n", "bbbb\n", "cccc\ndd"}
	if len(got) != len(want) {
		t.Fatalf("blocks = %q, want %q", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("block %d = %q, want %q", i, got[i], want[i])
		}
	}
	if strings.Join(got, "") != doc {
		t.Fatalf("blocks %q do not reassemble the document", got)
	}
	wantLine := 1
	for i := range got {
		if lines[i] != wantLine {
			t.Errorf("block %d startLine = %d, want %d", i, lines[i], wantLine)
		}
		wantLine += strings.Count(got[i], "\n")
	}
}

func TestBlockScannerLineTooLong(t *testing.T) {
	// One newline-free line above the 16 MB cap must fail, like the old
	// bufio.Scanner limit did, rather than grow without bound.
	r := &repeatReader{b: 'a', n: maxLineBytes + 2}
	sc := newBlockScanner(r, 1024)
	for {
		blk, ok := sc.next()
		if !ok {
			t.Fatal("scanner ended without reporting the over-long line")
		}
		if blk.readErr != nil {
			return // expected
		}
	}
}

// repeatReader yields n copies of byte b.
type repeatReader struct {
	b byte
	n int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, fmt.Errorf("no newline ever: %w", errNoMore)
	}
	n := len(p)
	if n > r.n {
		n = r.n
	}
	for i := 0; i < n; i++ {
		p[i] = r.b
	}
	r.n -= n
	return n, nil
}

var errNoMore = fmt.Errorf("exhausted")

func TestWriteParallelIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		g := randomDocGraph(r)
		var seq bytes.Buffer
		if err := WriteNTriples(&seq, g); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			var par bytes.Buffer
			if err := WriteNTriples(&par, g, WithWriteWorkers(workers), withWriteChunkSize(2)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(seq.Bytes(), par.Bytes()) {
				t.Fatalf("workers=%d: parallel write differs\nseq:\n%s\npar:\n%s",
					workers, seq.String(), par.String())
			}
		}
	}
}

// failAfterWriter fails every write after the first n bytes.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, fmt.Errorf("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

func TestWriteParallelPropagatesError(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomDocGraph(r)
	for i := 0; i < 10; i++ {
		w := &failAfterWriter{n: 8}
		err := WriteNTriples(w, g, WithWriteWorkers(4), withWriteChunkSize(1))
		if err == nil {
			t.Fatal("parallel write swallowed the write error")
		}
	}
}

// TestWriterPreservesRawBytes: a literal carrying invalid UTF-8 admitted
// by the lax parse must survive write → parse byte-for-byte (the rune
// loop it replaces silently rewrote such bytes to U+FFFD).
func TestWriterPreservesRawBytes(t *testing.T) {
	doc := "<s> <p> \"raw\xff\x01byte\" .\n"
	g, err := ParseNTriplesString(doc, "raw")
	if err != nil {
		t.Fatal(err)
	}
	want := "raw\xff\x01byte"
	if _, ok := g.FindLiteral(want); !ok {
		t.Fatalf("lax parse altered the literal; graph:\n%s", FormatNTriples(g))
	}
	g2, err := ParseNTriplesString(FormatNTriples(g), "raw-rt")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g2.FindLiteral(want); !ok {
		t.Errorf("write → parse altered the raw bytes; serialisation:\n%q", FormatNTriples(g))
	}
}
