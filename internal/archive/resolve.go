package archive

import (
	"sort"

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
// ambiguous classes by occurrence-profile overlap. next entries of -1 are
// unassigned; the function fills matched ones and marks their entities
// used.
func resolveAmbiguous(a *Archive, c *rdf.Combined, p *core.Partition,
	cur, next []EntityID, used []bool) {
	// Group unresolved nodes per ambiguous class.
	type group struct {
		src, tgt []rdf.NodeID
	}
	groups := make(map[core.Color]*group)
	for i := 0; i < c.NumNodes(); i++ {
		n := rdf.NodeID(i)
		col := p.Color(n)
		g := groups[col]
		if g == nil {
			g = &group{}
			groups[col] = g
		}
		if i < c.N1 {
			g.src = append(g.src, n)
		} else if int(n-rdf.NodeID(c.N1)) < len(next) && next[c.ToTarget(n)] == -1 {
			g.tgt = append(g.tgt, n)
		}
	}
	// Deterministic class order.
	cols := make([]core.Color, 0, len(groups))
	for col, g := range groups {
		if len(g.src) >= 1 && len(g.tgt) >= 1 && len(g.src)+len(g.tgt) > 2 {
			cols = append(cols, col)
		}
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })

	for _, col := range cols {
		g := groups[col]
		h, _ := similarity.OverlapMatch(g.src, g.tgt, resolveProfileTheta,
			func(n rdf.NodeID) []uint64 { return profile(c, p, n) },
			func(x, y rdf.NodeID) (float64, bool) {
				ov := similarity.Overlap(profile(c, p, x), profile(c, p, y))
				return 1 - ov, ov >= resolveProfileTheta
			}, core.Hooks{}, 1) // no context: cannot fail
		// Greedy one-to-one by ascending distance.
		sort.SliceStable(h.Edges, func(i, j int) bool {
			if h.Edges[i].D != h.Edges[j].D {
				return h.Edges[i].D < h.Edges[j].D
			}
			if h.Edges[i].A != h.Edges[j].A {
				return h.Edges[i].A < h.Edges[j].A
			}
			return h.Edges[i].B < h.Edges[j].B
		})
		usedSrc := make(map[rdf.NodeID]bool)
		for _, e := range h.Edges {
			if usedSrc[e.A] || used[cur[e.A]] {
				continue
			}
			tj := c.ToTarget(e.B)
			if next[tj] != -1 {
				continue
			}
			next[tj] = cur[e.A]
			used[cur[e.A]] = true
			usedSrc[e.A] = true
		}
	}
}
