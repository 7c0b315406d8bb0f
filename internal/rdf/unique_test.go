package rdf_test

import (
	"testing"

	"rdfalign/internal/archive"
	"rdfalign/internal/core"
	"rdfalign/internal/dataset"
	"rdfalign/internal/rdf"
)

// TestArchiveSnapshotsValidateUnderCollidingHash: archive snapshots are
// Builder-made graphs, and Builder.Graph skips the label-uniqueness pass
// because its term dictionaries make labels unique. Under a term hash that
// folds every value into four buckets, so that nearly every lookup takes
// the collision path, every snapshot of a blank-heavy EFO archive must
// still pass the full Validate. TestForcedTermHashCollisions covers the
// parsers.
func TestArchiveSnapshotsValidateUnderCollidingHash(t *testing.T) {
	defer rdf.CollideTermHash()()
	efo, err := dataset.GenerateEFO(dataset.EFOConfig{Versions: 3, Scale: 0.005, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := archive.New(efo.Graphs[0])
	for _, g := range efo.Graphs[1:] {
		c := rdf.Union(a.LatestGraph(), g)
		p, _, err := (&core.Engine{}).Hybrid(c, core.NewInterner())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Append(c, p, false); err != nil {
			t.Fatal(err)
		}
	}
	for v, g := range efo.Graphs {
		if err := g.Validate(); err != nil {
			t.Errorf("generated version %d: %v", v, err)
		}
		snap, err := a.Snapshot(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Validate(); err != nil {
			t.Errorf("archive snapshot of version %d: %v", v, err)
		}
	}
}
