package archive

import (
	"cmp"
	"slices"

	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
	"rdfalign/internal/similarity"
)

// This file resolves entity chaining inside *ambiguous* alignment classes.
// The bisimulation methods legitimately lump nodes they cannot distinguish
// — most prominently URIs used only in predicate position, which the paper
// itself flags (§5.1) and whose suggested fix ("incorporate the colors of
// the subject and the object in any triple that uses the given predicate")
// cannot use color *equality* under churn: one inserted row changes a
// predicate's full extension. Instead we follow the paper's §4 playbook:
// characterise each member of an ambiguous class by its occurrence profile
// (the color pairs of its predicate occurrences, incoming and outgoing
// edges under the already-computed partition) and match members across
// versions by profile *overlap*, greedily and one-to-one.

// profileKey encodes a (role, color, color) occurrence as one comparable
// key. Colors are non-negative int32s, so two fit beside a 2-bit role tag.
func profileKey(role uint64, a, b core.Color) uint64 {
	return role<<62 | uint64(uint32(a))<<31 | uint64(uint32(b))
}

// profile characterises a node by its occurrences under the partition.
func profile(c *rdf.Combined, p *core.Partition, n rdf.NodeID) []uint64 {
	var keys []uint64
	for _, e := range c.Out(n) {
		keys = append(keys, profileKey(0, p.Color(e.P), p.Color(e.O)))
	}
	for _, e := range c.In(n) {
		keys = append(keys, profileKey(1, p.Color(e.P), p.Color(e.O)))
	}
	for _, e := range c.PredOcc(n) {
		keys = append(keys, profileKey(2, p.Color(e.P), p.Color(e.O)))
	}
	return keys
}

// resolveProfileTheta is the minimum occurrence-profile overlap for two
// ambiguous-class members to chain. 0.5 = "more shared occurrences than
// not"; entity chaining only needs to beat the fresh-entity default, and
// wrong chains cannot corrupt snapshots (labels are stored per version).
const resolveProfileTheta = 0.5

// resolveAmbiguous chains entities between the source and target members of
// ambiguous classes by occurrence-profile overlap, visiting the classes in
// ascending color order. Only target members still unassigned (next entry
// -1) take part; the function fills matched ones and marks their entities
// used.
func resolveAmbiguous(classes *core.Alignment, cur, next []EntityID, used []bool) {
	c, p := classes.C, classes.P
	char := func(n rdf.NodeID) []uint64 { return profile(c, p, n) }
	dist := func(x, y rdf.NodeID) (float64, bool) {
		ov := similarity.Overlap(profile(c, p, x), profile(c, p, y))
		return 1 - ov, ov >= resolveProfileTheta
	}
	var open []rdf.NodeID
	classes.EachClass(func(src, tgt []rdf.NodeID) {
		open = open[:0]
		for _, n := range tgt {
			if next[c.ToTarget(n)] == -1 {
				open = append(open, n)
			}
		}
		if len(src) == 0 || len(open) == 0 || len(src)+len(open) <= 2 {
			return
		}
		h, _ := similarity.OverlapMatch(src, open, resolveProfileTheta, char, dist,
			core.Hooks{}, 1) // no context: cannot fail
		// Greedy one-to-one by ascending distance. A matched source's
		// entity is marked used, which keeps it from matching again.
		slices.SortFunc(h.Edges, func(x, y similarity.BipartiteEdge) int {
			return cmp.Or(cmp.Compare(x.D, y.D), cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
		})
		for _, e := range h.Edges {
			tj := c.ToTarget(e.B)
			if used[cur[e.A]] || next[tj] != -1 {
				continue
			}
			next[tj] = cur[e.A]
			used[cur[e.A]] = true
		}
	})
}
