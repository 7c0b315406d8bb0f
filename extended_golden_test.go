package rdfalign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"
)

// fig3V1 and fig3V2 are the paper's Figure 3 evolution: the bisimilar
// blanks b2 and b3 become the one blank b4, u is renamed to v, and b1
// reappears as b5.
const fig3V1 = `
<w> <p> _:b1 .
<w> <p> _:b2 .
<w> <q> _:b3 .
<w> <r> <u> .
_:b1 <q> <u> .
_:b1 <q> "b" .
_:b1 <r> _:b3 .
_:b2 <q> "a" .
_:b3 <q> "a" .
<u> <q> "a" .
`

const fig3V2 = `
<w> <p> _:b5 .
<w> <p> _:b4 .
<w> <q> _:b4 .
<w> <r> <v> .
_:b5 <q> <v> .
_:b5 <q> "b" .
_:b5 <r> _:b4 .
_:b4 <q> "a" .
<v> <q> "a" .
`

// alignmentDigest hashes an alignment's pairs with their distances and its
// unaligned source and target nodes, each in ascending node order.
func alignmentDigest(a *Alignment) string {
	type pair struct{ n1, n2 NodeID }
	var pairs []pair
	a.Pairs(func(n1, n2 NodeID) { pairs = append(pairs, pair{n1, n2}) })
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].n1 != pairs[j].n1 {
			return pairs[i].n1 < pairs[j].n1
		}
		return pairs[i].n2 < pairs[j].n2
	})
	h := sha256.New()
	for _, p := range pairs {
		fmt.Fprintf(h, "p %d %d %x\n", p.n1, p.n2, math.Float64bits(a.Distance(p.n1, p.n2)))
	}
	src, tgt := a.Unaligned()
	sort.Slice(src, func(i, j int) bool { return src[i] < src[j] })
	sort.Slice(tgt, func(i, j int) bool { return tgt[i] < tgt[j] })
	fmt.Fprintf(h, "u1 %v\nu2 %v\n", src, tgt)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestExtendedOptionsGolden pins the output of the extended refinements —
// context (WithContextual), predicate occurrences (WithAdaptive) and graph
// keys (WithKeyPredicates), alone and together — on Deblank, Hybrid and
// Overlap over the paper's Figures 1 and 3 and small EFO and GtoPdb pairs,
// plus contextual refinement on out-of-core storage. The digests cover
// pairs, distances and unaligned sets, so any change to how extended
// signatures are interned that changes a coloring shows here.
func TestExtendedOptionsGolden(t *testing.T) {
	f1a, f1b := parseFig1(t)
	f3a, err := ParseNTriplesString(fig3V1, "v1")
	if err != nil {
		t.Fatal(err)
	}
	f3b, err := ParseNTriplesString(fig3V2, "v2")
	if err != nil {
		t.Fatal(err)
	}
	efo, err := GenerateEFO(EFOConfig{Versions: 2, Scale: 0.01, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gtopdb, err := GenerateGtoPdb(GtoPdbConfig{Versions: 2, Scale: 0.003, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	datasets := []struct {
		name   string
		g1, g2 *Graph
		keys   []string
	}{
		{"fig1", f1a, f1b, []string{"name", "zip", "last"}},
		{"fig3", f3a, f3b, []string{"q"}},
		{"efo", efo.Graphs[0], efo.Graphs[1], []string{
			"http://www.w3.org/2000/01/rdf-schema#label",
			"http://www.w3.org/2000/01/rdf-schema#subClassOf"}},
		{"gtopdb", gtopdb.Graphs[0], gtopdb.Graphs[1], []string{
			gtopdb.Prefixes[0] + "ligand#name", gtopdb.Prefixes[1] + "ligand#name",
			gtopdb.Prefixes[0] + "ligand#type", gtopdb.Prefixes[1] + "ligand#type"}},
	}
	// Fixed digests: a change to how signatures are interned that keeps
	// colorings equal must reproduce every one.
	want := map[string]string{
		"fig1/deblank/context":          "4b7e102083c9e832",
		"fig1/deblank/adaptive":         "4b7e102083c9e832",
		"fig1/deblank/keys":             "777909e58aca90e4",
		"fig1/deblank/all":              "777909e58aca90e4",
		"fig1/hybrid/context":           "a5bca06024273115",
		"fig1/hybrid/adaptive":          "a5bca06024273115",
		"fig1/hybrid/keys":              "e532d238f613e957",
		"fig1/hybrid/all":               "e532d238f613e957",
		"fig1/overlap/context":          "a5bca06024273115",
		"fig1/overlap/adaptive":         "a5bca06024273115",
		"fig1/overlap/keys":             "e532d238f613e957",
		"fig1/overlap/all":              "e532d238f613e957",
		"fig3/deblank/context":          "1bde43dfee09db1f",
		"fig3/deblank/adaptive":         "4ccc92c76ac000a6",
		"fig3/deblank/keys":             "4ccc92c76ac000a6",
		"fig3/deblank/all":              "5a7c35c6ea3dabba",
		"fig3/hybrid/context":           "1bde43dfee09db1f",
		"fig3/hybrid/adaptive":          "e8cf95a27b56b86b",
		"fig3/hybrid/keys":              "e8cf95a27b56b86b",
		"fig3/hybrid/all":               "0b966ecd393b3aed",
		"fig3/overlap/context":          "e8cf95a27b56b86b",
		"fig3/overlap/adaptive":         "e8cf95a27b56b86b",
		"fig3/overlap/keys":             "e8cf95a27b56b86b",
		"fig3/overlap/all":              "0b966ecd393b3aed",
		"efo/deblank/context":           "d5aa31802e29be1b",
		"efo/deblank/adaptive":          "b88d7df0ac5744b8",
		"efo/deblank/keys":              "52807786e092262d",
		"efo/deblank/all":               "e9cec031213951c9",
		"efo/hybrid/context":            "d5aa31802e29be1b",
		"efo/hybrid/adaptive":           "b88d7df0ac5744b8",
		"efo/hybrid/keys":               "52807786e092262d",
		"efo/hybrid/all":                "e9cec031213951c9",
		"efo/overlap/context":           "e26e9e6d89c3a47d",
		"efo/overlap/adaptive":          "e28f6d9de1e328aa",
		"efo/overlap/keys":              "7fec9f987687be46",
		"efo/overlap/all":               "f179fa123ec47ba0",
		"gtopdb/deblank/context":        "50ed1c5e4f46ce38",
		"gtopdb/deblank/adaptive":       "50ed1c5e4f46ce38",
		"gtopdb/deblank/keys":           "50ed1c5e4f46ce38",
		"gtopdb/deblank/all":            "50ed1c5e4f46ce38",
		"gtopdb/hybrid/context":         "a3451bd9b35081b5",
		"gtopdb/hybrid/adaptive":        "50ed1c5e4f46ce38",
		"gtopdb/hybrid/keys":            "f5c14552dd66b816",
		"gtopdb/hybrid/all":             "33fa7ac9dbd48d7b",
		"gtopdb/overlap/context":        "d85807d5b84f08be",
		"gtopdb/overlap/adaptive":       "10da580a1cf28632",
		"gtopdb/overlap/keys":           "83b1fbad355bde7e",
		"gtopdb/overlap/all":            "aa9db9cb05212f4c",
		"efo/hybrid/context-outofcore":  "d5aa31802e29be1b",
		"efo/overlap/context-outofcore": "e26e9e6d89c3a47d",
	}
	for _, ds := range datasets {
		extensions := []struct {
			name string
			opts []Option
		}{
			{"context", []Option{WithContextual()}},
			{"adaptive", []Option{WithAdaptive()}},
			{"keys", []Option{WithKeyPredicates(ds.keys...)}},
			{"all", []Option{WithContextual(), WithAdaptive(), WithKeyPredicates(ds.keys...)}},
		}
		for _, m := range []Method{Deblank, Hybrid, Overlap} {
			for _, ext := range extensions {
				name := ds.name + "/" + m.String() + "/" + ext.name
				t.Run(name, func(t *testing.T) {
					a, err := alignWith(ds.g1, ds.g2, append([]Option{WithMethod(m)}, ext.opts...)...)
					if err != nil {
						t.Fatal(err)
					}
					if got := alignmentDigest(a); got != want[name] {
						t.Errorf("digest %s, want %s", got, want[name])
					}
				})
			}
		}
	}
	for _, m := range []Method{Hybrid, Overlap} {
		name := "efo/" + m.String() + "/context-outofcore"
		t.Run(name, func(t *testing.T) {
			al, err := NewAligner(WithMethod(m), WithContextual(), WithStorage(OutOfCore(t.TempDir())))
			if err != nil {
				t.Fatal(err)
			}
			a, err := al.Align(context.Background(), efo.Graphs[0], efo.Graphs[1])
			if err != nil {
				t.Fatal(err)
			}
			if got := alignmentDigest(a); got != want[name] {
				t.Errorf("digest %s, want %s", got, want[name])
			}
		})
	}
}
