package main

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"rdfalign"
	"rdfalign/internal/rdf"
	"rdfalign/internal/truth"
)

// digest fingerprints an alignment: a hash of its sorted (source label,
// target label) pairs, its pair count and its edge statistics.
type digest struct {
	sum           [sha256.Size]byte
	pairs         int
	common, union int
}

func (d digest) String() string {
	return fmt.Sprintf("%x pairs=%d edges=%d/%d", d.sum[:6], d.pairs, d.common, d.union)
}

func termKey(g *rdfalign.Graph, n rdfalign.NodeID) string {
	l := g.Label(n)
	return l.Kind.String() + ":" + l.Value
}

// pairDigest hashes the pairs visited by pairs (source and target node IDs
// of src and tgt) together with the given edge statistics.
func pairDigest(src, tgt *rdfalign.Graph, pairs func(func(n1, n2 rdfalign.NodeID)), common, union int) digest {
	var keys []string
	pairs(func(n1, n2 rdfalign.NodeID) {
		keys = append(keys, termKey(src, n1)+"\x00"+termKey(tgt, n2))
	})
	return digest{sum: hashSorted(keys), pairs: len(keys), common: common, union: union}
}

// alignmentDigest is the digest of an alignment returned by the public API.
func alignmentDigest(a *rdfalign.Alignment) digest {
	st := a.EdgeStats()
	return pairDigest(a.Source(), a.Target(), a.Pairs, st.Common, st.Union)
}

// graphDigest hashes a graph's sorted triples, by label.
func graphDigest(g *rdfalign.Graph) [sha256.Size]byte {
	keys := make([]string, 0, g.NumTriples())
	g.EachTriple(func(t rdf.Triple) bool {
		keys = append(keys, termKey(g, t.S)+"\x00"+termKey(g, t.P)+"\x00"+termKey(g, t.O))
		return true
	})
	return hashSorted(keys)
}

func hashSorted(keys []string) [sha256.Size]byte {
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// sameDigest is the digest gate: it fails unless got equals want.
func sameDigest(what string, got, want digest) error {
	if got != want {
		return fmt.Errorf("%s: digest %v, want %v", what, got, want)
	}
	return nil
}

// qualityCounts classifies the source URIs of an alignment against a
// ground truth (rdfalign.Classify), reading the matches from one pass over
// the pairs instead of a per-node scan of the target.
func qualityCounts(c *rdf.Combined, pairs func(func(n1, n2 rdfalign.NodeID)), tr *rdfalign.GroundTruth) map[string]float64 {
	matches := map[rdfalign.NodeID][]rdfalign.NodeID{}
	pairs(func(n1, n2 rdfalign.NodeID) { matches[n1] = append(matches[n1], n2) })
	p := truth.Classify(c, func(n rdf.NodeID) []rdf.NodeID { return matches[n] }, tr)
	return map[string]float64{
		"quality.exact":   float64(p.Exact),
		"quality.false":   float64(p.False),
		"quality.missing": float64(p.Missing),
	}
}
