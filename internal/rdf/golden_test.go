package rdf

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenGraphs builds the graphs whose serialisations are pinned under
// testdata/golden/. Each case concentrates on one escaping edge: control
// characters that must become \u escapes, quotes and backslashes, non-BMP
// runes written raw, language tags and datatype suffixes folded into
// literal values, and IRI-forbidden characters (in N-Triples, and the
// extra ones in Turtle).
func goldenGraphs() map[string]*Graph {
	out := map[string]*Graph{}

	b := NewBuilder("escapes")
	s := b.URI("http://example.org/s")
	p := b.URI("http://example.org/p")
	b.Triple(s, p, b.Literal("plain"))
	b.Triple(s, p, b.Literal("line\nbreak\tand\rreturn"))
	b.Triple(s, p, b.Literal(`back\slash and "quote"`))
	b.Triple(s, p, b.Literal("control\x01\x02\x1f chars"))
	b.Triple(s, p, b.Literal("\x00leading NUL"))
	out["literal-escapes"] = b.MustGraph()

	b = NewBuilder("unicode")
	s = b.URI("http://example.org/s")
	p = b.URI("http://example.org/p")
	b.Triple(s, p, b.Literal("bmp: é ¥ Ω"))
	b.Triple(s, p, b.Literal("non-bmp: 😀 𝄞 🜚"))
	b.Triple(s, p, b.Literal("mixed: a😀b\tc"))
	out["unicode"] = b.MustGraph()

	b = NewBuilder("tags")
	s = b.URI("http://example.org/s")
	p = b.URI("http://example.org/p")
	b.Triple(s, p, b.Literal("chat@fr"))
	b.Triple(s, p, b.Literal("42^^<http://www.w3.org/2001/XMLSchema#integer>"))
	b.Triple(s, p, b.Literal("tagged\nvalue@en-GB"))
	out["folded-suffixes"] = b.MustGraph()

	b = NewBuilder("iris")
	s = b.URI("http://example.org/angle<bracket>")
	p = b.URI("http://example.org/quote\"mark")
	o := b.URI("http://example.org/back\\slash")
	sp := b.URI("http://example.org/with space")
	b.Triple(s, p, o)
	b.Triple(s, p, sp)
	b.Triple(sp, p, b.Literal("iri edge cases"))
	out["iri-escapes"] = b.MustGraph()

	// Turtle rejects these raw in IRIs, so the writer escapes them.
	b = NewBuilder("turtle-iris")
	s = b.URI("http://example.org/set{a|b}")
	p = b.URI("http://example.org/p^q")
	b.Triple(s, p, b.URI("http://example.org/`tick`"))
	out["iri-escapes-turtle"] = b.MustGraph()

	b = NewBuilder("blanks")
	p = b.URI("http://example.org/p")
	x := b.Blank("x")
	y := b.Blank("y")
	z := b.FreshBlank()
	b.Triple(x, p, y)
	b.Triple(y, p, z)
	b.Triple(z, p, x)
	b.Triple(x, p, b.Literal("cycle"))
	out["blank-cycle"] = b.MustGraph()

	return out
}

// TestGoldenNTriples pins WriteNTriples/FormatNTriples output byte-for-
// byte against files under testdata/golden/ (regenerate with -update),
// and checks that every golden file re-parses — sequentially, in
// parallel, and in strict mode — to a graph that serialises back to the
// same bytes.
func TestGoldenNTriples(t *testing.T) {
	for name, g := range goldenGraphs() {
		t.Run(name, func(t *testing.T) {
			got := FormatNTriples(g)
			path := filepath.Join("testdata", "golden", name+".nt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("serialisation changed:\n--- got\n%s--- want\n%s", got, want)
			}

			// Every golden document is part of the parser corpus too.
			seq, err := ParseNTriplesString(string(want), "golden-seq")
			if err != nil {
				t.Fatalf("golden file does not re-parse: %v", err)
			}
			if reformatted := FormatNTriples(seq); reformatted != string(want) {
				t.Errorf("golden file is not a serialisation fixpoint:\n--- reparse+write\n%s--- file\n%s",
					reformatted, want)
			}
			par, err := ParseNTriplesString(string(want), "golden-par",
				WithParseWorkers(4), withParseBlockSize(32))
			if err != nil {
				t.Fatalf("parallel re-parse failed: %v", err)
			}
			if !graphsIdentical(seq, par) {
				t.Error("parallel re-parse of golden file differs from sequential")
			}
			if _, err := ParseNTriplesString(string(want), "golden-strict", WithStrictMode()); err != nil {
				t.Errorf("golden file rejected in strict mode: %v", err)
			}
			// N-Triples is a subset of Turtle.
			ttl, err := ParseTurtleString(string(want), "golden-ttl")
			if err != nil {
				t.Fatalf("golden file rejected as Turtle: %v", err)
			}
			if reformatted := FormatNTriples(ttl); reformatted != string(want) {
				t.Errorf("golden file read as Turtle changed:\n--- reparse+write\n%s--- file\n%s", reformatted, want)
			}
		})
	}
}
