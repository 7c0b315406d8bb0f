package archive

import (
	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/similarity"
)

// The archive takes its pair alignment from the caller (BuildOptions.Align);
// in production the root package supplies the session pipeline. The tests
// of this package align pairs with the reference composition below: the
// union of the pair, the Hybrid partition, and optionally Overlap on top.

// hybridPair aligns a pair with the Hybrid method.
func hybridPair(g1, g2 *rdf.Graph) (*core.Partition, *rdf.Combined, error) {
	c := rdf.Union(g1, g2)
	p, _, err := (&core.Engine{}).Hybrid(c, core.NewInterner())
	return p, c, err
}

// overlapPair aligns a pair with the Overlap method at the default θ, its
// matching phases spread over the given number of workers.
func overlapPair(workers int) func(g1, g2 *rdf.Graph) (*core.Partition, *rdf.Combined, error) {
	return func(g1, g2 *rdf.Graph) (*core.Partition, *rdf.Combined, error) {
		hybrid, c, err := hybridPair(g1, g2)
		if err != nil {
			return nil, nil, err
		}
		res, err := similarity.OverlapAlign(c, hybrid, similarity.OverlapOptions{
			Theta:   similarity.DefaultTheta,
			Workers: workers,
		})
		if err != nil {
			return nil, nil, err
		}
		return res.Xi.P, c, nil
	}
}
