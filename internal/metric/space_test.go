package metric

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// spaceCase pairs each built-in space with its scalar distance function for
// the surrogate-agreement property tests.
var spaceCases = []struct {
	sp   Space
	dist Distance
}{
	{EuclideanSpace, Euclidean},
	{ManhattanSpace, Manhattan},
	{ChebyshevSpace, Chebyshev},
	{AngularSpace, Angular},
	{CosineSpace, Cosine},
}

func randPoint(rng *rand.Rand, dim int) Point {
	p := make(Point, dim)
	for i := range p {
		p[i] = rng.NormFloat64() * 10
	}
	return p
}

// TestSurrogateAgreesWithTrueDistance is the surrogate property test: for
// every built-in space and random valid inputs (including zero vectors, which
// exercise the angular/cosine special cases), the surrogate converts back to
// the scalar distance bit for bit, and neither domain ever produces NaN.
func TestSurrogateAgreesWithTrueDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range spaceCases {
		t.Run(tc.sp.Name(), func(t *testing.T) {
			for trial := 0; trial < 500; trial++ {
				dim := 1 + rng.Intn(24)
				a, b := randPoint(rng, dim), randPoint(rng, dim)
				switch trial % 10 {
				case 7: // one zero vector
					for i := range a {
						a[i] = 0
					}
				case 8: // both zero
					for i := range a {
						a[i], b[i] = 0, 0
					}
				case 9: // coincident points
					copy(b, a)
				}
				want := tc.dist(a, b)
				s := tc.sp.Surrogate(a, b)
				if math.IsNaN(s) {
					t.Fatalf("surrogate(%v, %v) is NaN", a, b)
				}
				got := tc.sp.FromSurrogate(s)
				if math.IsNaN(got) || math.IsNaN(want) {
					t.Fatalf("NaN distance for valid points %v, %v", a, b)
				}
				if got != want {
					t.Fatalf("FromSurrogate(Surrogate) = %v, want %v (a=%v b=%v)", got, want, a, b)
				}
				if d := tc.sp.Distance(a, b); d != want {
					t.Fatalf("Distance = %v, want %v", d, want)
				}
			}
		})
	}
}

// TestSurrogateArgminAndThresholdDecisions checks that decisions taken in the
// surrogate domain match decisions taken with the scalar true distance:
// the argmin index over a random candidate set is identical, and threshold
// tests at realized distance values agree after the single FromSurrogate
// conversion the hot paths apply.
func TestSurrogateArgminAndThresholdDecisions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range spaceCases {
		t.Run(tc.sp.Name(), func(t *testing.T) {
			for trial := 0; trial < 200; trial++ {
				dim := 1 + rng.Intn(12)
				n := 2 + rng.Intn(40)
				set := make(Dataset, n)
				for i := range set {
					set[i] = randPoint(rng, dim)
				}
				q := randPoint(rng, dim)

				// Scalar reference scan in the true domain.
				wantBest, wantIdx := math.Inf(1), -1
				for i, p := range set {
					if d := tc.dist(q, p); d < wantBest {
						wantBest = d
						wantIdx = i
					}
				}
				s, idx := tc.sp.ArgNearest(q, set)
				if idx != wantIdx {
					t.Fatalf("trial %d: ArgNearest idx = %d, want %d", trial, idx, wantIdx)
				}
				if got := tc.sp.FromSurrogate(s); got != wantBest {
					t.Fatalf("trial %d: ArgNearest dist = %v, want %v", trial, got, wantBest)
				}

				// Threshold decisions at a realized distance (the kind of
				// threshold the covering loops use).
				thr := tc.dist(q, set[rng.Intn(n)])
				for i, p := range set {
					trueDec := tc.dist(q, p) <= thr
					surrDec := tc.sp.FromSurrogate(tc.sp.Surrogate(q, p)) <= thr
					if trueDec != surrDec {
						t.Fatalf("trial %d point %d: threshold decision mismatch", trial, i)
					}
				}
			}
		})
	}
}

// TestSpaceKernelsMatchScalarLoops pins DistancesTo and UpdateNearest against
// the scalar surrogate, per space.
func TestSpaceKernelsMatchScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, tc := range spaceCases {
		t.Run(tc.sp.Name(), func(t *testing.T) {
			dim := 6
			block := make(Dataset, 64)
			for i := range block {
				block[i] = randPoint(rng, dim)
			}
			q := randPoint(rng, dim)

			dst := make([]float64, len(block))
			tc.sp.DistancesTo(dst, q, block)
			for i, p := range block {
				if want := tc.sp.Surrogate(q, p); dst[i] != want {
					t.Fatalf("DistancesTo[%d] = %v, want %v", i, dst[i], want)
				}
			}

			minDist := make([]float64, len(block))
			minIdx := make([]int, len(block))
			for i := range minDist {
				minDist[i] = math.Inf(1)
				minIdx[i] = -1
			}
			m := tc.sp.UpdateNearest(minDist, minIdx, q, 0, block)
			wantMax := math.Inf(-1)
			for i, p := range block {
				want := tc.sp.Surrogate(q, p)
				if minDist[i] != want || minIdx[i] != 0 {
					t.Fatalf("UpdateNearest[%d] = (%v,%d), want (%v,0)", i, minDist[i], minIdx[i], want)
				}
				if want > wantMax {
					wantMax = want
				}
			}
			if m != wantMax {
				t.Fatalf("UpdateNearest max = %v, want %v", m, wantMax)
			}

			// A second center must only improve entries and never regress.
			q2 := randPoint(rng, dim)
			before := append([]float64(nil), minDist...)
			tc.sp.UpdateNearest(minDist, minIdx, q2, 1, block)
			for i := range minDist {
				if minDist[i] > before[i] {
					t.Fatalf("UpdateNearest regressed entry %d", i)
				}
				if minDist[i] < before[i] && minIdx[i] != 1 {
					t.Fatalf("improved entry %d not attributed to the new center", i)
				}
			}
		})
	}
}

// TestCrossPathEquivalence is the adapter-vs-native equivalence test of the
// determinism contract: for the spaces whose surrogate is an exact monotone
// prefix of the true distance (Euclidean, Manhattan, Chebyshev), every engine
// kernel returns bit-identical results on the native path and on the
// SpaceFromDistance adapter path, for every worker count.
func TestCrossPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	n := 9000
	// dim 5 takes the pure-Go kernels; dim 16 takes the AVX fast path where
	// the hardware has it.
	for _, dim := range []int{5, 16} {
		ds := make(Dataset, n)
		for i := range ds {
			ds[i] = randPoint(rng, dim)
		}
		centers := ds[:7]
		for _, tc := range []struct {
			sp   Space
			dist Distance
		}{
			{EuclideanSpace, Euclidean},
			{ManhattanSpace, Manhattan},
			{ChebyshevSpace, Chebyshev},
		} {
			t.Run(tc.sp.Name(), func(t *testing.T) {
				adapter := SpaceFromDistance(tc.sp.Name()+"-adapter", tc.dist)
				for _, w := range []int{1, 4} {
					e := NewEngine(w)
					nd, ni := e.DistanceToSet(tc.sp, ds[n/2], ds)
					ad, ai := e.DistanceToSet(adapter, ds[n/2], ds)
					if nd != ad || ni != ai {
						t.Fatalf("w=%d DistanceToSet native (%v,%d) != adapter (%v,%d)", w, nd, ni, ad, ai)
					}
					na := e.Assign(tc.sp, ds, centers)
					aa := e.Assign(adapter, ds, centers)
					for i := range na {
						if na[i] != aa[i] {
							t.Fatalf("w=%d Assign[%d] native %d != adapter %d", w, i, na[i], aa[i])
						}
					}
					if nr, ar := e.Radius(tc.sp, ds, centers), e.Radius(adapter, ds, centers); nr != ar {
						t.Fatalf("w=%d Radius native %v != adapter %v", w, nr, ar)
					}
					nre := e.RadiusExcluding(tc.sp, ds, centers, n/10)
					are := e.RadiusExcluding(adapter, ds, centers, n/10)
					if nre != are {
						t.Fatalf("w=%d RadiusExcluding native %v != adapter %v", w, nre, are)
					}
					nb, nbi := e.NearestBatch(tc.sp, ds, centers)
					ab, abi := e.NearestBatch(adapter, ds, centers)
					for i := range nb {
						if nb[i] != ab[i] || nbi[i] != abi[i] {
							t.Fatalf("w=%d NearestBatch[%d] native (%v,%d) != adapter (%v,%d)",
								w, i, nb[i], nbi[i], ab[i], abi[i])
						}
					}
				}
			})
		}
	}
}

// TestSpaceForUpgrades pins the Distance -> Space resolution rules.
func TestSpaceForUpgrades(t *testing.T) {
	if sp := SpaceFor(nil); sp != EuclideanSpace {
		t.Errorf("SpaceFor(nil) = %v, want EuclideanSpace", sp.Name())
	}
	for _, tc := range spaceCases {
		if sp := SpaceFor(tc.dist); sp != tc.sp {
			t.Errorf("SpaceFor(%s) did not upgrade to the native space", tc.sp.Name())
		}
	}
	custom := func(a, b Point) float64 { return Euclidean(a, b) }
	sp := SpaceFor(custom)
	if sp.Name() != "custom" {
		t.Errorf("SpaceFor(custom closure) = %q, want the adapter", sp.Name())
	}
	if got, want := sp.Distance(Point{0, 0}, Point{3, 4}), 5.0; got != want {
		t.Errorf("adapter distance = %v, want %v", got, want)
	}
	if s := sp.Surrogate(Point{0, 0}, Point{3, 4}); s != 5.0 {
		t.Errorf("adapter surrogate = %v, want the identity 5", s)
	}
}

// TestSpaceByName pins the name registry.
func TestSpaceByName(t *testing.T) {
	for _, tc := range spaceCases {
		if sp := SpaceByName(tc.sp.Name()); sp != tc.sp {
			t.Errorf("SpaceByName(%q) = %v", tc.sp.Name(), sp)
		}
	}
	if sp := SpaceByName("no-such-space"); sp != nil {
		t.Errorf("SpaceByName(unknown) = %v, want nil", sp)
	}
	if got := len(SpaceNames()); got != len(spaceCases) {
		t.Errorf("SpaceNames lists %d spaces, want %d", got, len(spaceCases))
	}
}

// TestCountingSpace checks the evaluation accounting of every kernel.
func TestCountingSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	block := make(Dataset, 17)
	for i := range block {
		block[i] = randPoint(rng, 3)
	}
	q := randPoint(rng, 3)
	c := NewCountingSpace(EuclideanSpace)
	c.Surrogate(q, block[0])
	c.Distance(q, block[0])
	c.DistancesTo(make([]float64, len(block)), q, block)
	c.ArgNearest(q, block)
	minDist := make([]float64, len(block))
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	c.UpdateNearest(minDist, make([]int, len(block)), q, 0, block)
	if got, want := c.Evaluations(), int64(2+3*len(block)); got != want {
		t.Fatalf("Evaluations = %d, want %d", got, want)
	}
	c.Reset()
	if c.Evaluations() != 0 {
		t.Fatal("Reset did not zero the counter")
	}
}

// scalarArgNearest is the reference the ArgNearest kernels are held to: one
// SquaredEuclidean per row, ascending, strict comparison.
func scalarArgNearest(q Point, set Dataset) (float64, int) {
	best, idx := math.Inf(1), -1
	for i, p := range set {
		if v := SquaredEuclidean(q, p); v < best {
			best, idx = v, i
		}
	}
	return best, idx
}

// kernelParitySets returns, for one dimensionality and set length, the sets
// the AVX parity test runs: random rows; the query's exact copy planted at
// every position (a best in each lane of a block and in the tail) together
// with a second copy further on (an exact tie the lowest index must win);
// duplicate rows throughout; rows at the 2^500 admission bound (sums near
// 2^1004) and rows beyond it whose sum overflows to +Inf, next to one finite
// row at each position; every row +Inf; and a NaN row in front of the rest.
func kernelParitySets(rng *rand.Rand, q Point, n int) []Dataset {
	dim := len(q)
	random := func() Dataset {
		set := make(Dataset, n)
		for i := range set {
			set[i] = randPoint(rng, dim)
		}
		return set
	}
	huge := func(exp int) Point { // 2^500 is the admission bound
		p := make(Point, dim)
		for j := range p {
			p[j] = -math.Ldexp(1, exp)
		}
		return p
	}
	sets := []Dataset{random()}
	for pos := 0; pos < n; pos++ {
		set := random()
		set[pos] = append(Point(nil), q...)
		if tie := pos + 1 + rng.Intn(n-pos); tie < n {
			set[tie] = append(Point(nil), q...)
		}
		sets = append(sets, set)

		dup := random()
		for i := range dup {
			dup[i] = dup[i%3]
		}
		sets = append(sets, dup)

		for _, exp := range []int{500, 600} {
			far := make(Dataset, n)
			for i := range far {
				far[i] = huge(exp)
			}
			far[pos] = randPoint(rng, dim)
			sets = append(sets, far)
		}
	}
	if n > 0 {
		inf := make(Dataset, n)
		for i := range inf {
			inf[i] = huge(600)
		}
		sets = append(sets, inf)

		withNaN := random()
		withNaN[0] = append(Point(nil), withNaN[0]...)
		withNaN[0][dim-1] = math.NaN()
		sets = append(sets, withNaN)
	}
	return sets
}

// TestAVXKernelsMatchPureGo pins the assembly fast paths against the pure-Go
// kernels bit for bit, across the dimensionalities the gate accepts, every
// set length 0-13 (whole blocks of four and every tail) and 301, and the
// shapes of kernelParitySets plus rows at +-2^500 and rows whose differences
// are subnormal. The indexed kernel runs on the same sets with shuffled,
// repeated indices, and the cache update on every cacheFixtures prefill with
// prefilled indices. On builds without AVX the test is skipped (the pure-Go
// path is the only one).
func TestAVXKernelsMatchPureGo(t *testing.T) {
	if !haveAVXKernels {
		t.Skip("no AVX kernels on this machine")
	}
	rng := rand.New(rand.NewSource(31))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 301}
	for _, dim := range []int{4, 8, 16, 32} {
		for _, n := range lengths {
			q := randPoint(rng, dim)
			sets := kernelParitySets(rng, q, n)
			centres := slices.Repeat([]Point{q}, len(sets))
			paritySets := len(sets)
			// Rows at +-2^500, and rows whose differences are subnormal,
			// each against a centre of their own magnitude.
			for _, exp := range []int{500, -520} {
				rows := extremeRows(rng, dim, n+1, exp)
				centres, sets = append(centres, rows[n]), append(sets, rows[:n])
			}
			for si, set := range sets {
				q := centres[si]
				s, idx := argNearestEucAVX(q, set)
				wantS, wantIdx := scalarArgNearest(q, set)
				if math.Float64bits(s) != math.Float64bits(wantS) || idx != wantIdx {
					t.Fatalf("dim=%d n=%d set %d: argNearestEucAVX = (%v,%d), want (%v,%d)", dim, n, si, s, idx, wantS, wantIdx)
				}

				dst := make([]float64, len(set))
				distancesToEucAVX(q, set, dst)
				for i, p := range set {
					if want := SquaredEuclidean(q, p); math.Float64bits(dst[i]) != math.Float64bits(want) {
						t.Fatalf("dim=%d n=%d set %d: distancesToEucAVX[%d] = %v, want %v", dim, n, si, i, dst[i], want)
					}
				}

				// The cache update, against every cache fixture (of the long
				// length's kernelParitySets, the first 60 only: the rest add
				// nothing new).
				for fi, fx := range cacheFixtures {
					if si >= 60 && si < paritySets {
						continue
					}
					minDist, minIdx := make([]float64, n), make([]int, n)
					for i, p := range set {
						minDist[i], minIdx[i] = fx(rng, SquaredEuclidean(q, p)), rng.Intn(2*n+1)-n
					}
					checkUpdateNearestKernel(t, fmt.Sprintf("dim=%d n=%d set %d caches %d", dim, n, si, fi), q, set, minDist, minIdx, 7)
				}

				if n == 0 {
					continue
				}
				ix := make([]int32, n+rng.Intn(n+1))
				for i := range ix {
					ix[i] = int32(rng.Intn(n))
				}
				dst = make([]float64, len(ix))
				if got := distancesToIdxEucAVX(q, set, ix, dst); got != len(ix) {
					t.Fatalf("dim=%d n=%d set %d: distancesToIdxEucAVX wrote %d of %d", dim, n, si, got, len(ix))
				}
				for i, j := range ix {
					if want := SquaredEuclidean(q, set[j]); math.Float64bits(dst[i]) != math.Float64bits(want) {
						t.Fatalf("dim=%d n=%d set %d: distancesToIdxEucAVX[%d] (row %d) = %v, want %v", dim, n, si, i, j, dst[i], want)
					}
				}
			}
		}
	}

	// Every row +Inf (a block and a tail row): nothing is below the initial
	// best, as in the scalar loop.
	big := math.Ldexp(1, 600)
	q := Point{big, 0, 0, 0}
	far := Dataset{{-big, 0, 0, 0}, {-big, 1, 0, 0}, {-big, 0, 0, 0}, {-big, 0, 2, 0}, {-big, 0, 0, 0}}
	if s, idx := argNearestEucAVX(q, far); !math.IsInf(s, 1) || idx != -1 {
		t.Fatalf("all rows +Inf: argNearestEucAVX = (%v,%d), want (+Inf,-1)", s, idx)
	}
}

// extremeRows returns n rows whose coordinates are +-2^exp with random signs
// and small random offsets in units of 2^(exp-4): at exp = 500 (the admission
// bound) the sums come near 2^1007, at exp = -520 the differences' squares
// are subnormal or underflow to zero.
func extremeRows(rng *rand.Rand, dim, n, exp int) Dataset {
	set := make(Dataset, n)
	for i := range set {
		p := make(Point, dim)
		for j := range p {
			p[j] = math.Ldexp(float64(16*(2*rng.Intn(2)-1)+rng.Intn(3)-1), exp-4)
		}
		set[i] = p
	}
	return set
}

// cacheFixtures prefill one cache entry from the surrogate s the update is
// about to compute for it: a fresh +Inf, an exact tie (the entry and its
// index must stay), a neighbour one ulp either side, zero, the smallest
// subnormal, a random share of s, and NaN (never produced by the library,
// which only ever stores a computed s < old, but the strict comparisons
// still agree on it). Every fixture mixes them except the first two.
var cacheFixtures = []func(rng *rand.Rand, s float64) float64{
	func(*rand.Rand, float64) float64 { return math.Inf(1) },
	func(_ *rand.Rand, s float64) float64 { return s },
	func(rng *rand.Rand, s float64) float64 { return cacheValue(rng.Intn(256), s) },
}

// cacheValue maps a selector to one of the cache values cacheFixtures
// describes.
func cacheValue(sel int, s float64) float64 {
	switch sel % 9 {
	case 0:
		return math.Inf(1)
	case 1, 2:
		return s
	case 3:
		return math.Nextafter(s, math.Inf(-1))
	case 4:
		return math.Nextafter(s, math.Inf(1))
	case 5:
		return 0
	case 6:
		return math.SmallestNonzeroFloat64
	case 7:
		return s * float64(sel/9) / 28
	default:
		return math.NaN()
	}
}

// scalarUpdateNearest is the pure-Go merge the kernel claims to match.
func scalarUpdateNearest(minDist []float64, minIdx []int, c Point, newIdx int, block Dataset) float64 {
	m := math.Inf(-1)
	for i, q := range block {
		if s := SquaredEuclidean(c, q); s < minDist[i] {
			minDist[i], minIdx[i] = s, newIdx
		}
		if minDist[i] > m {
			m = minDist[i]
		}
	}
	return m
}

// checkUpdateNearestKernel runs updateNearestEucAVX and the scalar merge on
// copies of the same caches and requires the same bits: every cache entry,
// every index, the returned max, and the tail rows (len % 4) left untouched
// by the kernel. EuclideanSpace.UpdateNearest, kernel plus Go tail, must then
// match the scalar merge over the whole block.
func checkUpdateNearestKernel(t *testing.T, label string, c Point, block Dataset, minDist []float64, minIdx []int, newIdx int) {
	t.Helper()
	whole := len(block) &^ 3
	wantD, wantI := slices.Clone(minDist), slices.Clone(minIdx)
	wantM := scalarUpdateNearest(wantD[:whole], wantI[:whole], c, newIdx, block[:whole])
	gotD, gotI := slices.Clone(minDist), slices.Clone(minIdx)
	gotM := updateNearestEucAVX(c, block, gotD, gotI, newIdx)
	copy(wantD[whole:], minDist[whole:])
	copy(wantI[whole:], minIdx[whole:])
	requireSameCaches(t, label+": updateNearestEucAVX", gotD, gotI, gotM, wantD, wantI, wantM)

	wantD, wantI = slices.Clone(minDist), slices.Clone(minIdx)
	wantM = scalarUpdateNearest(wantD, wantI, c, newIdx, block)
	gotD, gotI = slices.Clone(minDist), slices.Clone(minIdx)
	gotM = EuclideanSpace.UpdateNearest(gotD, gotI, c, newIdx, block)
	requireSameCaches(t, label+": UpdateNearest", gotD, gotI, gotM, wantD, wantI, wantM)
}

func requireSameCaches(t *testing.T, label string, gotD []float64, gotI []int, gotM float64, wantD []float64, wantI []int, wantM float64) {
	t.Helper()
	if math.Float64bits(gotM) != math.Float64bits(wantM) {
		t.Fatalf("%s: max = %v, want %v", label, gotM, wantM)
	}
	for i := range wantD {
		if math.Float64bits(gotD[i]) != math.Float64bits(wantD[i]) || gotI[i] != wantI[i] {
			t.Fatalf("%s: row %d = (%v,%d), want (%v,%d)", label, i, gotD[i], gotI[i], wantD[i], wantI[i])
		}
	}
}

// FuzzUpdateNearestKernel drives updateNearestEucAVX with byte-derived
// blocks and caches. The first byte picks the dimensionality (4 to 16) and
// the centre's coordinates come next; then every row takes its coordinates,
// a cache selector (see cacheValue: ties, +Inf, ulp neighbours, zero,
// subnormal, NaN) and a prefilled index. A coordinate byte below 40 picks a
// special value (+-2^500, +-2^600, subnormals, zeros), any other a small
// integer in quarters, so exact ties and duplicate rows are common.
func FuzzUpdateNearestKernel(f *testing.F) {
	if !haveAVXKernels {
		f.Skip("no AVX kernels on this machine")
	}
	f.Add([]byte{0, 50, 60, 70, 80, 50, 60, 70, 80, 1, 2, 90, 90, 90, 90, 0, 3})
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39})
	f.Add(bytes.Repeat([]byte{2, 200, 41, 7, 0}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dim := 4 * (1 + int(data[0])%4)
		data = data[1:]
		coord := func(b byte) float64 {
			if b >= 40 {
				return float64(int(b)-148) / 4
			}
			v := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-520, 0x1p500, 0x1p600, 1, 0x1p-1022}[b%8]
			if b&8 != 0 {
				v = -v
			}
			return v
		}
		if len(data) < dim {
			return
		}
		c := make(Point, dim)
		for j := range c {
			c[j] = coord(data[j])
		}
		data = data[dim:]
		var block Dataset
		var minDist []float64
		var minIdx []int
		for ; len(data) >= dim+2; data = data[dim+2:] {
			p := make(Point, dim)
			for j := range p {
				p[j] = coord(data[j])
			}
			block = append(block, p)
			minDist = append(minDist, cacheValue(int(data[dim]), SquaredEuclidean(c, p)))
			minIdx = append(minIdx, int(data[dim+1])-128)
		}
		checkUpdateNearestKernel(t, fmt.Sprintf("dim=%d n=%d", dim, len(block)), c, block, minDist, minIdx, 9)
	})
}

// TestIndexedKernelStopsAtBadIndex: the indexed kernel checks every index
// before it reads a block and stops in front of the first block (or tail row)
// holding one out of range, negative ones included; DistancesToIndexed then
// panics on it as an index expression would.
func TestIndexedKernelStopsAtBadIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points := make(Dataset, 9)
	for i := range points {
		points[i] = randPoint(rng, 8)
	}
	q := randPoint(rng, 8)
	for _, tc := range []struct {
		idx  []int32
		stop int
	}{
		{[]int32{0, 1, 2, 3, 4, 5, 9, 7}, 4},
		{[]int32{8, 8, 8, 8, 0, 1, -1}, 6},
		{[]int32{0, 1, 2, 3, 4, 5, 6, 7, 1, 2, 40}, 10},
	} {
		if haveAVXKernels {
			dst := make([]float64, len(tc.idx))
			if got := distancesToIdxEucAVX(q, points, tc.idx, dst); got != tc.stop {
				t.Errorf("idx %v: distancesToIdxEucAVX wrote %d entries, want %d", tc.idx, got, tc.stop)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("idx %v: DistancesToIndexed did not panic", tc.idx)
				}
			}()
			DistancesToIndexed(EuclideanSpace, make([]float64, len(tc.idx)), q, points, tc.idx)
		}()
	}
}

// TestDistancesToIndexedMatchesGather: for every space, the indexed form
// gives what DistancesTo gives on the gathered block, bit for bit, with
// repeated and out-of-order indices, and a CountingSpace counts one
// evaluation per index.
func TestDistancesToIndexedMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range spaceCases {
		for _, dim := range []int{3, 4, 16} {
			for _, n := range []int{1, 5, 13, 301, 700} {
				points := make(Dataset, n)
				for i := range points {
					points[i] = randPoint(rng, dim)
				}
				q := randPoint(rng, dim)
				idx := make([]int32, n+rng.Intn(n))
				block := make(Dataset, len(idx))
				for i := range idx {
					idx[i] = int32(rng.Intn(n))
					block[i] = points[idx[i]]
				}
				want := make([]float64, len(idx))
				tc.sp.DistancesTo(want, q, block)
				cs := NewCountingSpace(tc.sp)
				got := make([]float64, len(idx))
				DistancesToIndexed(cs, got, q, points, idx)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s dim=%d n=%d: DistancesToIndexed[%d] = %v, want %v", tc.sp.Name(), dim, n, i, got[i], want[i])
					}
				}
				if cs.Evaluations() != int64(len(idx)) {
					t.Fatalf("%s: counted %d evaluations for %d indices", tc.sp.Name(), cs.Evaluations(), len(idx))
				}
			}
		}
	}
}

// TestEmptySetSentinelSurvivesFromSurrogate pins the (+Inf, -1) empty-set
// convention: every space's FromSurrogate must map the +Inf sentinel to +Inf
// (the angular clamp once collapsed it to distance 1, making empty center
// sets look one unit away).
func TestEmptySetSentinelSurvivesFromSurrogate(t *testing.T) {
	p := Point{1, 0, 0}
	for _, tc := range spaceCases {
		s, idx := tc.sp.ArgNearest(p, nil)
		if !math.IsInf(s, 1) || idx != -1 {
			t.Errorf("%s: ArgNearest on empty set = (%v,%d), want (+Inf,-1)", tc.sp.Name(), s, idx)
		}
		if d := tc.sp.FromSurrogate(math.Inf(1)); !math.IsInf(d, 1) {
			t.Errorf("%s: FromSurrogate(+Inf) = %v, want +Inf", tc.sp.Name(), d)
		}
	}
	adapter := SpaceFromDistance("custom", Euclidean)
	if d := adapter.FromSurrogate(math.Inf(1)); !math.IsInf(d, 1) {
		t.Errorf("adapter: FromSurrogate(+Inf) = %v, want +Inf", d)
	}
}
