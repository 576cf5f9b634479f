package metric

import (
	"math"
	"math/rand"
	"testing"
)

// inverseSpaces are the spaces SurrogateAtMost is checked on: every built-in
// space, the identity adapter over a built-in and over a custom function,
// and the counting wrapper.
func inverseSpaces() []Space {
	return []Space{
		EuclideanSpace, ManhattanSpace, ChebyshevSpace, AngularSpace, CosineSpace,
		SpaceFromDistance("adapter", Euclidean),
		SpaceFromDistance("minkowski3", Minkowski(3)),
		NewCountingSpace(EuclideanSpace),
		NewCountingSpace(AngularSpace),
	}
}

// inverseThresholds are the true-distance thresholds the contract is checked
// at: zero, subnormals, both sides of 2^+-500, the extremes and a few plain
// values.
var inverseThresholds = []float64{
	0, math.SmallestNonzeroFloat64, 0x1p-1040, 0x1p-1022,
	0x1p-500, math.Nextafter(0x1p-500, 0), math.Nextafter(0x1p-500, 1),
	0x1p500, math.Nextafter(0x1p500, 0), math.Nextafter(0x1p500, math.Inf(1)),
	math.MaxFloat64, math.Inf(1),
	0.5, 1, 2, 1.0 / 3, 4 * 1.7, 1e-9, -1, math.Inf(-1),
}

// checkSurrogateAtMost checks SurrogateAtMost(sp, d) = T: T itself qualifies
// and the next float does not, and FromSurrogate(s) <= d agrees with s <= T
// at T, at its neighbours and at every probe — wherever neither s nor its
// conversion is NaN, which is all the contract covers.
func checkSurrogateAtMost(t testing.TB, sp Space, d float64, probes ...float64) {
	t.Helper()
	T := SurrogateAtMost(sp, d)
	agrees := func(s float64) {
		t.Helper()
		v := sp.FromSurrogate(s)
		if math.IsNaN(s) || math.IsNaN(v) {
			return
		}
		if got, want := s <= T, v <= d; got != want {
			t.Fatalf("%s, d = %v (%x): T = %v; s = %v (%x) converts to %v: s <= T is %v, FromSurrogate(s) <= d is %v",
				sp.Name(), d, math.Float64bits(d), T, s, math.Float64bits(s), v, got, want)
		}
	}
	if !math.IsNaN(T) {
		if v := sp.FromSurrogate(T); !(v <= d || math.IsNaN(v)) {
			t.Fatalf("%s, d = %v: T = %v converts to %v", sp.Name(), d, T, v)
		}
		k := orderedKey(T)
		if k != orderedKey(math.Inf(1)) {
			next := fromOrderedKey(k + 1)
			if v := sp.FromSurrogate(next); v <= d || math.IsNaN(v) {
				t.Fatalf("%s, d = %v: T = %v is not the largest: %v converts to %v", sp.Name(), d, T, next, v)
			}
			agrees(next)
		}
		agrees(T)
		agrees(math.Nextafter(T, math.Inf(-1)))
	}
	for _, s := range probes {
		agrees(s)
	}
}

func TestOrderedKey(t *testing.T) {
	vals := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	for i, v := range vals {
		k := orderedKey(v)
		if back := fromOrderedKey(k); math.Float64bits(back) != math.Float64bits(v) {
			t.Errorf("%v: round trip gives %v", v, back)
		}
		if i > 0 && !(k > orderedKey(vals[i-1])) {
			t.Errorf("%v orders before %v", v, vals[i-1])
		}
	}
	if orderedKey(math.Copysign(0, -1))+1 != orderedKey(0) {
		t.Error("-0 and +0 are not neighbours")
	}
}

// TestSurrogateAtMost checks the inverse's contract on every space, at the
// fixed thresholds and at random ones, against surrogates the kernels
// compute, random bit patterns and values around ToSurrogate(d).
func TestSurrogateAtMost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	thresholds := append([]float64(nil), inverseThresholds...)
	for range 40 {
		thresholds = append(thresholds, math.Ldexp(rng.Float64(), rng.Intn(200)-100))
	}
	for _, sp := range inverseSpaces() {
		for _, d := range thresholds {
			probes := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.MaxFloat64, math.Inf(1)}
			if s := sp.ToSurrogate(d); !math.IsNaN(s) {
				for k := -4; k <= 4; k++ {
					probes = append(probes, fromOrderedKey(orderedKey(s)+uint64(k)))
				}
			}
			for range 50 {
				probes = append(probes, math.Float64frombits(rng.Uint64()))
				a, b := randPoint(rng, 3), randPoint(rng, 3)
				probes = append(probes, sp.Surrogate(a, b))
			}
			checkSurrogateAtMost(t, sp, d, probes...)
		}
	}
}

// TestSurrogateAtMostDecidesLikeTheConversion is the use the streaming merge
// rule makes of the inverse: over the pairs of random point sets, every
// threshold on the true distances drawn from the pairs' own distances decides
// the same pairs in the surrogate domain.
func TestSurrogateAtMostDecidesLikeTheConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sp := range inverseSpaces() {
		pts := make(Dataset, 40)
		for i := range pts {
			pts[i] = randPoint(rng, 4)
		}
		var surr []float64
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				surr = append(surr, sp.Surrogate(pts[i], pts[j]))
			}
		}
		for _, s := range surr[:60] {
			d := sp.FromSurrogate(s)
			checkSurrogateAtMost(t, sp, d, surr...)
			checkSurrogateAtMost(t, sp, 4*d/2, surr...)
		}
	}
}

// FuzzSurrogateAtMost checks the inverse's contract for a fuzzed space,
// threshold and surrogate.
func FuzzSurrogateAtMost(f *testing.F) {
	f.Add(uint8(0), math.Float64bits(0), math.Float64bits(0))
	f.Add(uint8(0), math.Float64bits(0x1p500), math.Float64bits(0x1p1000))
	f.Add(uint8(3), math.Float64bits(0.25), math.Float64bits(-0.5))
	f.Add(uint8(4), math.Float64bits(math.Inf(1)), math.Float64bits(1))
	f.Add(uint8(1), math.Float64bits(math.SmallestNonzeroFloat64), uint64(1))
	spaces := inverseSpaces()
	f.Fuzz(func(t *testing.T, which uint8, d, s uint64) {
		checkSurrogateAtMost(t, spaces[int(which)%len(spaces)], math.Float64frombits(d), math.Float64frombits(s))
	})
}
