// Package strdist implements string edit distance, the literal-node
// distance primitive of the σEdit similarity measure (Buneman & Staworko,
// PVLDB 2016, §4.2): the paper illustrates it with the nodes "abc" and "ac"
// at distance 1/3 — one edit over a maximum length of three.
//
// Distances are computed over runes (Unicode code points), matching the
// character-level intuition of the paper's example, and the normalised
// variant divides by the longer length so the result lies in [0, 1].
package strdist

import (
	"slices"
	"unicode/utf8"
)

// Levenshtein returns the unit-cost edit distance (insertions, deletions,
// substitutions) between a and b, counted over runes.
func Levenshtein(a, b string) int {
	ra := []rune(a)
	rb := []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Keep the inner loop over the shorter string.
	if lb > la {
		ra, rb = rb, ra
		la, lb = lb, la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			sub := prev[j-1]
			if ra[i-1] != rb[j-1] {
				sub++
			}
			del := prev[j] + 1
			ins := cur[j-1] + 1
			m := sub
			if del < m {
				m = del
			}
			if ins < m {
				m = ins
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// Normalized returns Levenshtein(a, b) divided by the greater rune length,
// in [0, 1]. Two empty strings are at distance 0 (cf. diff(∅, ∅) = 0 in
// §4.6).
func Normalized(a, b string) float64 {
	la := utf8.RuneCountInString(a)
	lb := utf8.RuneCountInString(b)
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 0
	}
	return float64(Levenshtein(a, b)) / float64(m)
}

// WithinThreshold reports whether Normalized(a, b) ≤ theta — the inclusive
// Align_θ convention (§4.1) used by every thresholded alignment in this
// repository — computing the distance with a banded dynamic program that
// abandons the computation as soon as the bound is provably exceeded. It
// returns the normalised distance (exact when ok) and ok.
//
// This is the candidate-verification primitive of the overlap heuristic
// (Algorithm 1, line 17), where most candidate pairs fail the test and the
// early exit matters.
//
// Strings of up to stackRunes runes are compared without allocating: the
// rune-count gap is checked before any conversion, and the runes and DP
// rows live in stack buffers that only longer strings spill to the heap.
func WithinThreshold(a, b string, theta float64) (dist float64, ok bool) {
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	maxLen := max(la, lb)
	if maxLen == 0 {
		return 0, 0 <= theta
	}
	// Maximum tolerable absolute distance: d/maxLen ≤ theta for integer d
	// is ⌊theta·maxLen⌋ in the rationals, so a distance exactly at the
	// limit (the θ·maxLen integral case) passes. The float product can
	// round just below an integer the rational product reaches (θ = 15/22
	// with maxLen 22 gives 14.999…8), so widen the band while the next
	// distance still compares ≤ θ under the final check's float division.
	limit := int(theta * float64(maxLen))
	for limit < maxLen && float64(limit+1)/float64(maxLen) <= theta {
		limit++
	}
	if abs(la-lb) > limit {
		return 1, false
	}
	if lb > la {
		a, b = b, a
		la, lb = lb, la
	}
	if lb == 0 {
		// One string empty: the distance is maxLen, normalised 1. Only
		// θ = 1 admits it (smaller thresholds were rejected by the length
		// gap above).
		return 1, 1 <= theta
	}
	var raBuf, rbBuf [stackRunes]rune
	var prevBuf, curBuf [stackRunes + 1]int
	ra, rb := appendRunes(raBuf[:0], a), appendRunes(rbBuf[:0], b)
	prev := slices.Grow(prevBuf[:0], lb+1)[:lb+1]
	cur := slices.Grow(curBuf[:0], lb+1)[:lb+1]
	// Banded DP with band radius = limit.
	const inf = 1 << 30
	for j := 0; j <= lb; j++ {
		if j > limit {
			prev[j] = inf
		} else {
			prev[j] = j
		}
	}
	for i := 1; i <= la; i++ {
		lo := i - limit
		if lo < 1 {
			lo = 1
		}
		hi := i + limit
		if hi > lb {
			hi = lb
		}
		if lo > 1 {
			cur[lo-1] = inf
		} else {
			cur[0] = i
			if i > limit {
				cur[0] = inf
			}
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			sub := prev[j-1]
			if ra[i-1] != rb[j-1] {
				sub++
			}
			del := prev[j] + 1
			ins := inf
			if j-1 >= lo-1 {
				ins = cur[j-1] + 1
			}
			m := sub
			if del < m {
				m = del
			}
			if ins < m {
				m = ins
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		for j := hi + 1; j <= lb; j++ {
			cur[j] = inf
		}
		if rowMin > limit {
			return 1, false
		}
		prev, cur = cur, prev
	}
	d := prev[lb]
	if d > limit {
		return 1, false
	}
	// The band limit is exact in the rationals; the final comparison uses
	// the same float expression as Normalized so the two functions can
	// never disagree through rounding.
	nd := float64(d) / float64(maxLen)
	return nd, nd <= theta
}

// stackRunes is the longest string WithinThreshold compares in stack
// buffers.
const stackRunes = 64

// appendRunes appends the runes of s to dst.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
