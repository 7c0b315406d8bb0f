package delta

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rdfalign/internal/rdf"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestScriptGolden pins the canonical Format of every checked-in script:
// testdata/NAME.script parses and reformats to testdata/NAME.canonical
// (regenerate with -update), and the canonical form is a Format/Parse
// fixpoint.
func TestScriptGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.script"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden scripts found: %v", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".script")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ParseString(string(src))
			if err != nil {
				t.Fatalf("Parse(%s): %v", file, err)
			}
			got := s.Format()
			goldenPath := filepath.Join("testdata", name+".canonical")
			if *updateGolden {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("canonical form of %s changed:\ngot:\n%swant:\n%s", file, got, want)
			}
			// The canonical form is a fixpoint.
			s2, err := ParseString(got)
			if err != nil {
				t.Fatalf("reparse canonical: %v", err)
			}
			if !reflect.DeepEqual(s, s2) {
				t.Errorf("Parse(Format(s)) differs from s")
			}
			if f2 := s2.Format(); f2 != got {
				t.Errorf("Format not a fixpoint:\nfirst:\n%ssecond:\n%s", got, f2)
			}
		})
	}
}

// randomTerm draws a term over a small alphabet including values needing
// escapes.
func randomTerm(rng *rand.Rand, object bool) rdf.Term {
	values := []string{"a", "b", "path/to/x", "sp ace", "tab\tand\nnewline", `back\slash "q"`, "café ✓"}
	v := values[rng.Intn(len(values))]
	if object {
		switch rng.Intn(3) {
		case 0:
			return rdf.Term{Kind: rdf.URI, Value: v}
		case 1:
			return rdf.Term{Kind: rdf.Literal, Value: v}
		default:
			return rdf.Term{Kind: rdf.Blank, Value: "n1"}
		}
	}
	if rng.Intn(4) == 0 {
		return rdf.Term{Kind: rdf.Blank, Value: "n1"}
	}
	return rdf.Term{Kind: rdf.URI, Value: v}
}

// TestScriptRoundTrip: random scripts survive Format→Parse unchanged and
// Summary counts agree with the operation list.
func TestScriptRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(8)
		s := &Script{}
		ins := 0
		for i := 0; i < n; i++ {
			op := Op{Insert: rng.Intn(2) == 0, T: rdf.TermTriple{
				S: randomTerm(rng, false),
				P: rdf.Term{Kind: rdf.URI, Value: "p"},
				O: randomTerm(rng, true),
			}}
			if op.Insert {
				ins++
			}
			s.Ops = append(s.Ops, op)
		}
		text := s.Format()
		s2, err := ParseString(text)
		if err != nil {
			t.Fatalf("trial %d: Parse(Format): %v\n%s", trial, err, text)
		}
		if len(s2.Ops) != len(s.Ops) {
			t.Fatalf("trial %d: op count %d != %d", trial, len(s2.Ops), len(s.Ops))
		}
		if len(s.Ops) > 0 && !reflect.DeepEqual(s, s2) {
			t.Fatalf("trial %d: round trip changed ops\n%s", trial, text)
		}
		wantSummary := strings.Contains(s.Summary(), "ops=") &&
			strings.Contains(s.Summary(), "inserted=")
		if !wantSummary {
			t.Fatalf("trial %d: malformed summary %q", trial, s.Summary())
		}
		inv := s.Inverse()
		if len(inv.Ops) != len(s.Ops) {
			t.Fatalf("trial %d: inverse op count", trial)
		}
		for i, op := range inv.Ops {
			orig := s.Ops[len(s.Ops)-1-i]
			if op.Insert == orig.Insert || op.T != orig.T {
				t.Fatalf("trial %d: inverse op %d wrong", trial, i)
			}
		}
	}
}

// TestScriptSummary pins the summary wording.
func TestScriptSummary(t *testing.T) {
	s, err := ParseString("+ <a> <p> <b> .\n- <a> <p> \"x\" .\n+ <c> <p> <d> .\n")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Summary(), "ops=3 inserted=2 deleted=1"; got != want {
		t.Errorf("Summary() = %q, want %q", got, want)
	}
}

// TestScriptParseErrors checks that errors carry exact line and column
// positions through marker, whitespace and term-level failures.
func TestScriptParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		line int
		col  int
	}{
		{"bad marker", "+ <a> <p> <b> .\n* <a> <p> <b> .\n", 2, 1},
		{"no space after marker", "+<a> <p> <b> .\n", 1, 2},
		{"marker only", "# c\n\n+ \n", 3, 3},
		{"unterminated IRI", "+ <a> <p> <b .\n", 1, 13},
		{"literal subject", "- \"x\" <p> <b> .\n", 1, 3},
		{"missing dot", "+ <a> <p> <b>\n", 1, 14},
		{"indented bad marker", "  ? <a> <p> <b> .\n", 1, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseString(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			pe, ok := err.(*rdf.ParseError)
			if !ok {
				t.Fatalf("error %v is not a *rdf.ParseError", err)
			}
			if pe.Line != tc.line || pe.Col != tc.col {
				t.Errorf("position = line %d col %d, want line %d col %d (%v)", pe.Line, pe.Col, tc.line, tc.col, err)
			}
			if want := fmt.Sprintf("delta: line %d col %d: ", tc.line, tc.col); !strings.HasPrefix(err.Error(), want) {
				t.Errorf("error %q does not start with %q", err, want)
			}
		})
	}
}

// TestScriptApplyInverse: applying a script and then its inverse restores
// the original triple set through the Editor.
func TestScriptApplyInverse(t *testing.T) {
	b := rdf.NewBuilder("g")
	a1 := b.URI("http://e/a1")
	label := b.URI("http://e/label")
	b.Triple(a1, label, b.Literal("one"))
	b.Triple(a1, b.URI("http://e/subject"), b.URI("http://e/c1"))
	g := b.MustGraph()

	s, err := ParseString(`- <http://e/a1> <http://e/label> "one" .
+ <http://e/a1> <http://e/label> "1" .
+ <http://e/a2> <http://e/label> "two" .
`)
	if err != nil {
		t.Fatal(err)
	}
	ed := rdf.NewEditor(g)
	res, err := s.Apply(ed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumTriples() != g.NumTriples()+1 {
		t.Fatalf("triples = %d, want %d", res.Graph.NumTriples(), g.NumTriples()+1)
	}
	if _, ok := res.Graph.FindLiteral("1"); !ok {
		t.Error("inserted literal missing")
	}
	res2, err := s.Inverse().Apply(ed)
	if err != nil {
		t.Fatalf("inverse apply: %v", err)
	}
	if !reflect.DeepEqual(res2.Graph.Triples(), g.Triples()) {
		t.Errorf("inverse did not restore the triple set")
	}
}
