package archive

import (
	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/similarity"
)

// The archive records pairs the caller aligned; in production the root
// package runs its session pipeline. The tests of this package align pairs
// with the reference composition below: the union of the pair, the Hybrid
// partition, and optionally Overlap on top.

// buildOpts says how the tests archive a history: Align aligns each
// consecutive pair, and ResolveAmbiguous is Append's resolve flag.
type buildOpts struct {
	Align            func(g1, g2 *rdf.Graph) (*core.Partition, *rdf.Combined, error)
	ResolveAmbiguous bool
}

// build archives a non-empty history: New over the first version, then one
// appendGraph per later version.
func build(graphs []*rdf.Graph, opt buildOpts) (*Archive, error) {
	a := New(graphs[0])
	for _, g := range graphs[1:] {
		if err := appendGraph(a, g, opt); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// appendGraph aligns the archive's newest graph with g and appends g.
func appendGraph(a *Archive, g *rdf.Graph, opt buildOpts) error {
	p, c, err := opt.Align(a.LatestGraph(), g)
	if err != nil {
		return err
	}
	return a.Append(c, p, opt.ResolveAmbiguous)
}

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
