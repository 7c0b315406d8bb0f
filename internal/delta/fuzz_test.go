package delta

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseScript checks the edit-script text form: ParseString never
// panics, and an accepted script's Format reparses to the same operations
// and is a fixed point of Format∘ParseString. The checked-in testdata
// scripts seed the corpus.
func FuzzParseScript(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.script"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("+ <s> <p> <o> .\n- <s> <p> \"x\"@en .\r\n  # comment\n\t+ _:b <p> \"1\"^^<http://t> .")
	f.Add("* <s> <p> <o> .\n")
	f.Add("+<s> <p> <o> .\n")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseString(src)
		if err != nil {
			return
		}
		canon := s.Format()
		s2, err := ParseString(canon)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(s2.Ops, s.Ops) {
			t.Fatalf("reparsed operations differ:\n got %v\nwant %v", s2.Ops, s.Ops)
		}
		if again := s2.Format(); again != canon {
			t.Fatalf("Format is not a fixed point:\nfirst:\n%s\nsecond:\n%s", canon, again)
		}
	})
}
