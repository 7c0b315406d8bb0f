package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rdfalign/internal/rdf"
)

func TestLabelPartitionGroupsBlanksTogether(t *testing.T) {
	g := figure3G1(t)
	in := NewInterner()
	p := LabelPartition(g, in)
	var blanks []rdf.NodeID
	g.Nodes(func(n rdf.NodeID) {
		if g.IsBlank(n) {
			blanks = append(blanks, n)
		}
	})
	if len(blanks) < 2 {
		t.Fatal("test graph needs ≥ 2 blanks")
	}
	for _, b := range blanks[1:] {
		if !p.SameClass(blanks[0], b) {
			t.Error("ℓ_G must place all blank nodes in one class")
		}
	}
}

func TestTrivialPartitionSeparatesBlanks(t *testing.T) {
	g := figure3G1(t)
	in := NewInterner()
	p := TrivialPartition(g, in)
	var blanks []rdf.NodeID
	g.Nodes(func(n rdf.NodeID) {
		if g.IsBlank(n) {
			blanks = append(blanks, n)
		}
	})
	for i := 0; i < len(blanks); i++ {
		for j := i + 1; j < len(blanks); j++ {
			if p.SameClass(blanks[i], blanks[j]) {
				t.Error("λTrivial must give every blank node its own class")
			}
		}
	}
}

func TestFinerReflexiveAndOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomGraph(r, "finer", 4, 3, 2, 15)
	in := NewInterner()
	label := LabelPartition(g, in)
	trivial := TrivialPartition(g, in)
	if !Finer(label, label) || !Finer(trivial, trivial) {
		t.Error("Finer must be reflexive")
	}
	// λTrivial is finer than ℓ_G (it splits the blank class).
	if !Finer(trivial, label) {
		t.Error("λTrivial should be finer than ℓ_G")
	}
	if g.NumBlanks() > 1 && Finer(label, trivial) {
		t.Error("ℓ_G should not be finer than λTrivial when blanks exist")
	}
}

func TestEquivalentDetectsRecoloring(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := randomGraph(r, "equiv", 4, 3, 2, 15)
	in := NewInterner()
	p := LabelPartition(g, in)
	// A bijective recoloring is equivalent.
	colors := make([]Color, p.Len())
	rename := map[Color]Color{}
	for i := 0; i < p.Len(); i++ {
		c := p.Color(rdf.NodeID(i))
		nc, ok := rename[c]
		if !ok {
			nc = in.Fresh()
			rename[c] = nc
		}
		colors[i] = nc
	}
	q := NewPartition(in, colors)
	if !Equivalent(p, q) {
		t.Error("bijective recoloring should be equivalent")
	}
	// Merging two classes is not.
	if p.NumClasses() >= 2 {
		merged := p.Clone()
		c0 := merged.Color(0)
		for i := 0; i < merged.Len(); i++ {
			if merged.Color(rdf.NodeID(i)) != c0 {
				merged.colors[i] = c0
				break
			}
		}
		if Equivalent(p, merged) {
			t.Error("merging classes should break equivalence")
		}
		if !Finer(p, merged) {
			t.Error("original should be finer than its merge")
		}
	}
}

func TestEquivalentLengthMismatch(t *testing.T) {
	in := NewInterner()
	a := NewPartition(in, []Color{1, 2})
	b := NewPartition(in, []Color{1})
	if Equivalent(a, b) || Finer(a, b) {
		t.Error("partitions over different node counts are incomparable")
	}
}

func TestBlankOut(t *testing.T) {
	g := figure3G1(t)
	in := NewInterner()
	p := TrivialPartition(g, in)
	u := mustURI(t, g, "u")
	w := mustURI(t, g, "w")
	q := BlankOut(p, []rdf.NodeID{u})
	if q.Color(u) != in.Blank() {
		t.Error("BlankOut should set the blank color")
	}
	if q.Color(w) != p.Color(w) {
		t.Error("BlankOut must not touch other nodes")
	}
	if p.Color(u) == in.Blank() {
		t.Error("BlankOut must not mutate its input")
	}
}

func TestUnalignedOnFigure1(t *testing.T) {
	g1 := figure1V1(t)
	g2 := figure1V2(t)
	c := rdf.Union(g1, g2)
	in := NewInterner()
	dp, _, _ := (&Engine{}).Deblank(c.Graph, in)
	un1, un2 := Unaligned(c, dp)

	want1 := map[string]bool{"ed-uni": true, "middle": true}
	for _, n := range un1 {
		l := c.Label(n)
		if l.Kind == rdf.URI && !want1[l.Value] && l.Value != "" {
			if l.Value != "ed-uni" && l.Value != "middle" {
				t.Errorf("unexpected unaligned source URI %s", l.Value)
			}
		}
	}
	// ed-uni, middle, b2 (name record), plus literals Slawek and Pawel.
	if len(un1) != 5 {
		t.Errorf("Unaligned1 size = %d, want 5", len(un1))
	}
	// uoe, b4 (name record), literal Slawomir.
	if len(un2) != 3 {
		t.Errorf("Unaligned2 size = %d, want 3", len(un2))
	}

	un := UnalignedNonLiterals(c, dp)
	if len(un) != 5 { // ed-uni, middle, b2, uoe, b4
		t.Errorf("UnalignedNonLiterals size = %d, want 5", len(un))
	}
	for _, n := range un {
		if c.IsLiteral(n) {
			t.Error("UnalignedNonLiterals returned a literal")
		}
	}
	for i := 1; i < len(un); i++ {
		if un[i-1] >= un[i] {
			t.Error("UnalignedNonLiterals must be sorted")
		}
	}
}

func TestUnalignedProperty(t *testing.T) {
	// For every unaligned source node there is truly no same-color target
	// node, and vice versa; aligned nodes have at least one.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombined(r)
		in := NewInterner()
		p, _, _ := (&Engine{}).Deblank(c.Graph, in)
		un1, _ := Unaligned(c, p)
		unset := map[rdf.NodeID]bool{}
		for _, n := range un1 {
			unset[n] = true
		}
		for i := 0; i < c.N1; i++ {
			n := rdf.NodeID(i)
			hasMatch := false
			for j := c.N1; j < c.N1+c.N2; j++ {
				if p.SameClass(n, rdf.NodeID(j)) {
					hasMatch = true
					break
				}
			}
			if hasMatch == unset[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNumClassesAndClasses(t *testing.T) {
	g := figure3G1(t)
	in := NewInterner()
	p := LabelPartition(g, in)
	classes := p.Classes()
	if len(classes) != p.NumClasses() {
		t.Errorf("Classes() size %d != NumClasses() %d", len(classes), p.NumClasses())
	}
	total := 0
	for _, members := range classes {
		total += len(members)
	}
	if total != p.Len() {
		t.Errorf("classes cover %d nodes, want %d", total, p.Len())
	}
}

// TestLabelPartitionFirstUseOrder: presizing the label maps changes no
// color. LabelPartition on a union, on a fresh interner and on one that
// already holds colors, assigns each label the color of its first use,
// blanks the pre-allocated blank color.
func TestLabelPartitionFirstUseOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		c := randomCombined(r)
		want := make([]Color, c.NumNodes())
		first := map[rdf.Label]Color{}
		next := Color(1) // 0 is the blank color
		for n := range want {
			l := c.Label(rdf.NodeID(n))
			if l.Kind == rdf.Blank {
				continue
			}
			if _, ok := first[l]; !ok {
				first[l] = next
				next++
			}
			want[n] = first[l]
		}
		in := NewInterner()
		if got := LabelPartition(c.Graph, in).Colors(); !slices.Equal(got, want) {
			t.Fatalf("LabelPartition colors %v, want first-use order %v", got, want)
		}
		// A second call on the same interner keeps its maps and colors.
		if got := LabelPartition(c.Graph, in).Colors(); !slices.Equal(got, want) {
			t.Fatalf("LabelPartition on a used interner: %v, want %v", got, want)
		}
	}
}
