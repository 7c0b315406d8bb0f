package rdfalign

import (
	"context"
	"strings"
	"testing"
)

func TestComputeDeltaPublicAPI(t *testing.T) {
	g1, g2 := parseFig1(t)
	a, err := alignWith(g1, g2, WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(a)
	if d.Retained+len(d.Removed) != g1.NumTriples() {
		t.Errorf("retained %d + removed %d != |E1| %d", d.Retained, len(d.Removed), g1.NumTriples())
	}
	if d.Retained+len(d.Added) != g2.NumTriples() {
		t.Errorf("retained %d + added %d != |E2| %d", d.Retained, len(d.Added), g2.NumTriples())
	}
	text := FormatDelta(a, d)
	if !strings.Contains(text, "retained=") {
		t.Errorf("FormatDelta output:\n%s", text)
	}
	// The removed middle-name triple from Figure 1 must appear.
	if !strings.Contains(text, `"Pawel"`) {
		t.Errorf("delta should list the removed middle name:\n%s", text)
	}
	// Self-delta is empty.
	self, err := alignWith(g1, g1, WithMethod(Deblank))
	if err != nil {
		t.Fatal(err)
	}
	sd := ComputeDelta(self)
	if len(sd.Removed) != 0 || len(sd.Added) != 0 {
		t.Errorf("self delta = %s", sd.Summary())
	}
}

func TestBuildArchivePublicAPI(t *testing.T) {
	d, err := GenerateEFO(EFOConfig{Versions: 3, Scale: 0.005, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	al, err := NewAligner(WithResolveAmbiguous())
	if err != nil {
		t.Fatal(err)
	}
	a, err := al.BuildArchive(context.Background(), d.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Versions() != 3 {
		t.Errorf("Versions = %d", a.Versions())
	}
	st := a.GatherStats()
	if st.Rows == 0 || st.CompressionRatio <= 0 || st.CompressionRatio > 1 {
		t.Errorf("archive stats = %s", st)
	}
	for v := 0; v < 3; v++ {
		snap, err := a.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		if snap.NumTriples() != d.Graphs[v].NumTriples() {
			t.Errorf("v%d: snapshot triples %d != original %d",
				v+1, snap.NumTriples(), d.Graphs[v].NumTriples())
		}
	}
	if _, err := al.BuildArchive(context.Background(), nil); err == nil {
		t.Error("empty history accepted")
	}
}

func TestAdaptiveOptionPublicAPI(t *testing.T) {
	// The §5.1 predicate scenario through the public API: with Adaptive,
	// version-prefixed column predicates align one-to-one.
	mk := func(prefix string) *Graph {
		b := NewBuilder(prefix)
		row := b.URI(prefix + "row/1")
		b.Triple(row, b.URI(prefix+"name"), b.Literal("calcitonin"))
		b.Triple(row, b.URI(prefix+"species"), b.Literal("Human"))
		return b.MustGraph()
	}
	g1 := mk("http://a/")
	g2 := mk("http://b/")
	plain, err := alignWith(g1, g2, WithMethod(Hybrid))
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.MatchesOfURI("http://a/name"); len(got) != 2 {
		t.Errorf("plain hybrid should lump both predicates, got %v", got)
	}
	adaptive, err := alignWith(g1, g2, WithMethod(Hybrid), WithAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	if got := adaptive.MatchesOfURI("http://a/name"); len(got) != 1 || got[0] != "http://b/name" {
		t.Errorf("adaptive hybrid should align name 1-1, got %v", got)
	}
	if got := adaptive.MatchesOfURI("http://a/species"); len(got) != 1 || got[0] != "http://b/species" {
		t.Errorf("adaptive hybrid should align species 1-1, got %v", got)
	}
	// The similarity methods honour the extension options for their
	// hybrid base as well.
	for _, m := range []Method{Overlap, SigmaEdit} {
		a, err := alignWith(g1, g2, WithMethod(m), WithAdaptive())
		if err != nil {
			t.Fatal(err)
		}
		if got := a.MatchesOfURI("http://a/name"); len(got) != 1 || got[0] != "http://b/name" {
			t.Errorf("%v with Adaptive: name matches = %v", m, got)
		}
	}
}
