package rdf_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/snapshot"
)

// requireDependentsRebuilt builds c's dependents index, if it is still
// lazy, and holds c's Dependents to a from-scratch build over c's out-CSR
// (rdf.Rebuilt freezes the same triples into a graph that is no union),
// node for node.
func requireDependentsRebuilt(t *testing.T, what string, c *rdf.Combined) {
	t.Helper()
	c.Columns().DepCSR() // builds even a union without nodes
	want := rdf.Rebuilt(c.Graph)
	for i := 0; i < c.NumNodes(); i++ {
		n := rdf.NodeID(i)
		if got := c.Dependents(n); !slices.Equal(got, want.Dependents(n)) {
			t.Fatalf("%s: Dependents(%d) = %v, want %v", what, i, got, want.Dependents(n))
		}
	}
}

// unionOperand makes a fresh graph of one kind for a union test. keeps
// tells whether the operand holds a dependents index of its own once a
// heap union's is built, stored whether it does from the start.
type unionOperand struct {
	what          string
	make          func() *rdf.Graph
	keeps, stored bool
}

// unionOperands returns one maker per kind of operand: a parsed heap graph
// (its index lazy), a mapped snapshot (which stores one), an edit of a
// parsed graph that reads through an overlay, that edit folded into a
// plain CSR, and the zero graph.
func unionOperands(t *testing.T, r *rand.Rand, dir string) []unionOperand {
	t.Helper()
	tts := randomTerms(r, 200+r.Intn(100))
	doc := termDoc(tts)
	ref := refFromTerms(tts)
	parse := func() *rdf.Graph {
		g, err := rdf.ParseNTriplesString(doc, "heap")
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	path := filepath.Join(dir, fmt.Sprintf("operand%d.snap", r.Int()))
	if err := snapshot.WriteGraphMappedFile(path, parse()); err != nil {
		t.Fatal(err)
	}
	ops := randomEdit(r, ref, 1, 1).ops
	edited := func() *rdf.Graph {
		res, err := rdf.NewEditor(parse()).Apply(ops)
		if err != nil {
			t.Fatal(err)
		}
		if !rdf.HasOverlay(res.Graph) {
			t.Fatal("a two-op edit of a 200-triple graph compacted")
		}
		return res.Graph
	}
	return []unionOperand{
		{"heap", parse, true, false},
		{"mapped", func() *rdf.Graph {
			g, err := snapshot.OpenGraphMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { g.Close() })
			return g
		}, true, true},
		{"edited", edited, false, false},
		{"folded", func() *rdf.Graph { return rdf.Folded(edited()) }, true, false},
		{"zero", func() *rdf.Graph { return &rdf.Graph{} }, true, false},
	}
}

// TestUnionDependentsMatchBuild checks that a union's Dependents, which
// concatenate its operands' indexes, equal a from-scratch build over the
// union's CSR for every pairing of heap, mapped, edited (overlay), folded
// and zero operands, in memory and out of core. It also pins which
// operands keep an index of their own afterwards: overlay-free ones of a
// heap union do, edited ones and those of an out-of-core union do not
// (unless they stored one). Last, one operand shared by two unions, on
// either side, serves both.
func TestUnionDependentsMatchBuild(t *testing.T) {
	dir := t.TempDir()
	disk := core.OutOfCore(dir)
	defer disk.Close()
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		operands := unionOperands(t, r, dir)
		for _, o1 := range operands {
			for _, o2 := range operands {
				pair := fmt.Sprintf("seed %d: %s⊎%s", seed, o1.what, o2.what)
				g1, g2 := o1.make(), o2.make()
				requireDependentsRebuilt(t, pair, rdf.Union(g1, g2))
				if rdf.KeepsDependents(g1) != o1.keeps || rdf.KeepsDependents(g2) != o2.keeps {
					t.Fatalf("%s: operands keep an index: %v, %v; want %v, %v", pair,
						rdf.KeepsDependents(g1), rdf.KeepsDependents(g2), o1.keeps, o2.keeps)
				}
				g1, g2 = o1.make(), o2.make()
				requireDependentsRebuilt(t, pair+" out of core", rdf.UnionIn(disk, g1, g2))
				if rdf.KeepsDependents(g1) != o1.stored || rdf.KeepsDependents(g2) != o2.stored {
					t.Fatalf("%s out of core: an operand without a stored index kept one", pair)
				}
			}
		}
		for _, o := range operands {
			what := fmt.Sprintf("seed %d: shared %s", seed, o.what)
			shared, other := o.make(), operands[0].make()
			requireDependentsRebuilt(t, what+" as source", rdf.Union(shared, other))
			requireDependentsRebuilt(t, what+" as target", rdf.Union(other, shared))
			requireDependentsRebuilt(t, what+" on both sides", rdf.Union(shared, shared))
		}
	}
}

// TestSharedOperandDependentsConcurrent races the first Dependents calls
// of two unions sharing one operand, on either side, against a write of
// that operand's mapped snapshot, which reads the same lazily built
// index. Every result must equal a sequential build.
func TestSharedOperandDependentsConcurrent(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		parse := func(lines int, name string) *rdf.Graph {
			g, err := rdf.ParseNTriplesString(termDoc(randomTerms(r, lines)), name)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		shared, a, b := parse(300, "shared"), parse(150, "a"), parse(150, "b")
		c1, c2 := rdf.Union(shared, a), rdf.Union(b, shared)
		path := filepath.Join(dir, fmt.Sprintf("shared%d.snap", seed))
		var wg sync.WaitGroup
		var writeErr error
		wg.Add(3)
		go func() { defer wg.Done(); c1.Dependents(0) }()
		go func() { defer wg.Done(); c2.Dependents(0) }()
		go func() { defer wg.Done(); writeErr = snapshot.WriteGraphMappedFile(path, shared) }()
		wg.Wait()
		if writeErr != nil {
			t.Fatal(writeErr)
		}
		what := fmt.Sprintf("seed %d", seed)
		requireDependentsRebuilt(t, what+": shared⊎a", c1)
		requireDependentsRebuilt(t, what+": b⊎shared", c2)
		written, err := snapshot.OpenGraphMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		want := rdf.Rebuilt(shared)
		for i := 0; i < shared.NumNodes(); i++ {
			n := rdf.NodeID(i)
			if got := written.Dependents(n); !slices.Equal(got, want.Dependents(n)) {
				t.Fatalf("%s: written snapshot's Dependents(%d) = %v, want %v", what, i, got, want.Dependents(n))
			}
		}
		written.Close()
	}
}
