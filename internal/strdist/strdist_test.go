package strdist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"abc", "ac", 1}, // the paper's §4.2 example
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"éé", "ee", 2}, // runes, not bytes
		{"😀b", "b", 1},
		{"abc", "cba", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestNormalizedPaperExample(t *testing.T) {
	// "the distance between the nodes "abc" and "ac" is 1/3 because they
	// differ by the presence of b and the length of both is bounded by 3".
	if got := Normalized("abc", "ac"); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("Normalized(abc, ac) = %v, want 1/3", got)
	}
	// diff(∅, ∅) = 0 convention.
	if Normalized("", "") != 0 {
		t.Error("Normalized of two empty strings must be 0")
	}
	if Normalized("", "xy") != 1 {
		t.Error("Normalized against empty must be 1")
	}
}

// naiveLev is the exponential reference implementation for short strings.
func naiveLev(a, b []rune) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	sub := naiveLev(a[1:], b[1:])
	if a[0] != b[0] {
		sub++
	}
	del := naiveLev(a[1:], b) + 1
	ins := naiveLev(a, b[1:]) + 1
	m := sub
	if del < m {
		m = del
	}
	if ins < m {
		m = ins
	}
	return m
}

func randWord(r *rand.Rand, maxLen int) string {
	n := r.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('a' + r.Intn(4)))
	}
	return sb.String()
}

func TestLevenshteinAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randWord(r, 7)
		b := randWord(r, 7)
		got := Levenshtein(a, b)
		want := naiveLev([]rune(a), []rune(b))
		if got != want {
			t.Logf("Levenshtein(%q,%q) = %d, want %d", a, b, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinMetricAxioms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randWord(r, 8), randWord(r, 8), randWord(r, 8)
		dab := Levenshtein(a, b)
		dba := Levenshtein(b, a)
		dac := Levenshtein(a, c)
		dcb := Levenshtein(c, b)
		if dab != dba {
			return false // symmetry
		}
		if (dab == 0) != (a == b) {
			return false // identity of indiscernibles
		}
		return dab <= dac+dcb // triangle inequality
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalizedBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randWord(r, 10), randWord(r, 10)
		d := Normalized(a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWithinThresholdAgreesWithNormalized(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randWord(r, 10), randWord(r, 10)
		theta := float64(r.Intn(11)) / 10.0
		if theta == 0 {
			theta = 0.05
		}
		want := Normalized(a, b)
		got, ok := WithinThreshold(a, b, theta)
		if ok != (want <= theta) {
			t.Logf("WithinThreshold(%q,%q,%v): ok=%v, Normalized=%v", a, b, theta, ok, want)
			return false
		}
		if ok && math.Abs(got-want) > 1e-12 {
			t.Logf("WithinThreshold(%q,%q,%v): dist=%v, want %v", a, b, theta, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestWithinThresholdLengthEarlyOut(t *testing.T) {
	// Long vs short strings with a tight threshold must be rejected
	// without full DP.
	long := strings.Repeat("a", 10000)
	if _, ok := WithinThreshold(long, "a", 0.1); ok {
		t.Error("length gap should fail the threshold")
	}
	if _, ok := WithinThreshold("", "", 0.5); !ok {
		t.Error("two empty strings are within any positive threshold")
	}
	if _, ok := WithinThreshold("", "", 0.0); !ok {
		t.Error("two empty strings are at distance 0 ≤ θ = 0")
	}
}

// TestWithinThresholdBandBoundary pins the θ·maxLen integral case: with the
// inclusive convention, a distance exactly at the band limit passes, one
// edit beyond it fails. This is the regression test for the formerly dead
// (and misleading) strict-inequality special case in the band computation.
func TestWithinThresholdBandBoundary(t *testing.T) {
	cases := []struct {
		a, b  string
		theta float64
		dist  float64
		ok    bool
	}{
		// maxLen = 4, θ·maxLen = 2 exactly; distance 2 is on the limit.
		{"abcd", "abxy", 0.5, 0.5, true},
		// Distance 3 exceeds the limit by one edit.
		{"abcd", "axyz", 0.5, 1, false},
		// maxLen = 20, θ·maxLen = 13 exactly (the 0.65 default).
		{strings.Repeat("a", 20), strings.Repeat("a", 7) + strings.Repeat("b", 13), 0.65, 0.65, true},
		{strings.Repeat("a", 20), strings.Repeat("a", 6) + strings.Repeat("b", 14), 0.65, 1, false},
		// Length gap exactly at the limit: "aaaa" → "aa" is 2 = ⌊0.5·4⌋.
		{"aaaa", "aa", 0.5, 0.5, true},
		{"aaaa", "a", 0.5, 1, false},
		// θ = 1 admits everything, including maximally distant strings.
		{"abc", "xyz", 1, 1, true},
		// θ·maxLen irrepresentable: 15/22·22 rounds to 14.999…8, but a
		// distance of 15 over 22 runes compares equal to θ in the final
		// float check and must pass (the band-limit rounding regression).
		{strings.Repeat("a", 22), strings.Repeat("b", 15) + strings.Repeat("a", 7),
			15.0 / 22, 15.0 / 22, true},
		// Same shape at the band radius 0→1 boundary: θ = 1/49.
		{strings.Repeat("a", 49), strings.Repeat("a", 48) + "b",
			1.0 / 49, 1.0 / 49, true},
		// θ = 0 admits exact matches only.
		{"abc", "abc", 0, 0, true},
		{"abc", "abd", 0, 1, false},
	}
	for _, c := range cases {
		dist, ok := WithinThreshold(c.a, c.b, c.theta)
		if ok != c.ok || dist != c.dist {
			t.Errorf("WithinThreshold(%q, %q, %v) = (%v, %v), want (%v, %v)",
				c.a, c.b, c.theta, dist, ok, c.dist, c.ok)
		}
	}
}

func BenchmarkLevenshteinWords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Levenshtein("experimental factor ontology", "experimental factor ontologies")
	}
}

func BenchmarkWithinThresholdReject(b *testing.B) {
	x := strings.Repeat("abcdefgh", 16)
	y := strings.Repeat("hgfedcba", 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WithinThreshold(x, y, 0.2)
	}
}

// runeWord returns a random word of exactly n runes over a small alphabet
// that mixes one-, two- and three-byte encodings.
func runeWord(r *rand.Rand, n int) string {
	alphabet := []rune{'a', 'b', 'é', '→'}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(alphabet[r.Intn(len(alphabet))])
	}
	return sb.String()
}

func TestWithinThresholdNoAllocsUpTo64Runes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 8, 33, 63, 64} {
		a, b := runeWord(r, n), runeWord(r, n-r.Intn(n))
		for _, theta := range []float64{0.1, 0.65, 1} {
			if allocs := testing.AllocsPerRun(20, func() { WithinThreshold(a, b, theta) }); allocs != 0 {
				t.Errorf("WithinThreshold on %d and %d runes (θ=%v) allocates %v times",
					n, len([]rune(b)), theta, allocs)
			}
		}
	}
}

// TestWithinThresholdPastStackBuffers checks strings on both sides of the
// 64-rune stack buffers against Normalized.
func TestWithinThresholdPastStackBuffers(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		a, b := runeWord(r, 56+r.Intn(20)), runeWord(r, 56+r.Intn(20))
		if i%3 == 0 {
			b = a[:len(a)/2] + runeWord(r, 10) // a near variant
		}
		theta := float64(1+r.Intn(10)) / 10
		want := Normalized(a, b)
		got, ok := WithinThreshold(a, b, theta)
		if ok != (want <= theta) || ok && math.Abs(got-want) > 1e-12 {
			t.Fatalf("WithinThreshold(%q, %q, %v) = %v, %v; Normalized = %v", a, b, theta, got, ok, want)
		}
	}
}
