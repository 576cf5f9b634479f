package metric

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestEuclidean(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"1d", Point{-1}, Point{2}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Euclidean(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Euclidean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestManhattanChebyshevSquared(t *testing.T) {
	a, b := Point{0, 0}, Point{3, -4}
	if got := Manhattan(a, b); got != 7 {
		t.Errorf("Manhattan = %v, want 7", got)
	}
	if got := Chebyshev(a, b); got != 4 {
		t.Errorf("Chebyshev = %v, want 4", got)
	}
	if got := SquaredEuclidean(a, b); got != 25 {
		t.Errorf("SquaredEuclidean = %v, want 25", got)
	}
}

func TestCosineAndAngular(t *testing.T) {
	a, b := Point{1, 0}, Point{0, 1}
	if got := Cosine(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("Cosine orthogonal = %v, want 1", got)
	}
	if got := Cosine(a, a); math.Abs(got) > 1e-12 {
		t.Errorf("Cosine identical = %v, want 0", got)
	}
	if got := Angular(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Angular orthogonal = %v, want 0.5", got)
	}
	// Zero vectors must not produce NaN.
	z := Point{0, 0}
	if got := Cosine(z, z); got != 0 {
		t.Errorf("Cosine(0,0) = %v, want 0", got)
	}
	if got := Cosine(z, a); got != 1 {
		t.Errorf("Cosine(0,a) = %v, want 1", got)
	}
	if got := Angular(z, z); got != 0 {
		t.Errorf("Angular(0,0) = %v, want 0", got)
	}
	if got := Angular(z, a); got != 0.5 {
		t.Errorf("Angular(0,a) = %v, want 0.5", got)
	}
}

func TestMinkowski(t *testing.T) {
	a, b := Point{0, 0}, Point{3, 4}
	if got := Minkowski(2)(a, b); math.Abs(got-5) > 1e-9 {
		t.Errorf("Minkowski(2) = %v, want 5", got)
	}
	if got := Minkowski(1)(a, b); math.Abs(got-7) > 1e-9 {
		t.Errorf("Minkowski(1) = %v, want 7", got)
	}
}

// randomPoint returns a random point of dimension d with coordinates in
// [-scale, scale].
func randomPoint(rng *rand.Rand, d int, scale float64) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = (rng.Float64()*2 - 1) * scale
	}
	return p
}

// metricAxioms checks the metric axioms for the given distance on random
// triples of points of the given dimension.
func metricAxioms(t *testing.T, name string, dist Distance, d int) {
	t.Helper()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPoint(r, d, 100)
		b := randomPoint(r, d, 100)
		c := randomPoint(r, d, 100)
		dab, dba := dist(a, b), dist(b, a)
		if dab < 0 {
			t.Logf("%s: negative distance %v", name, dab)
			return false
		}
		if math.Abs(dab-dba) > 1e-9*(1+dab) {
			t.Logf("%s: asymmetric %v vs %v", name, dab, dba)
			return false
		}
		if dist(a, a) > 1e-9 {
			t.Logf("%s: d(a,a) != 0", name)
			return false
		}
		// Triangle inequality with a tolerance for floating-point error.
		if dab > dist(a, c)+dist(c, b)+1e-9*(1+dab) {
			t.Logf("%s: triangle violated", name)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("%s does not satisfy metric axioms: %v", name, err)
	}
}

func TestMetricAxiomsProperty(t *testing.T) {
	metricAxioms(t, "Euclidean", Euclidean, 5)
	metricAxioms(t, "Manhattan", Manhattan, 5)
	metricAxioms(t, "Chebyshev", Chebyshev, 5)
	metricAxioms(t, "Minkowski(3)", Minkowski(3), 5)
}

func TestCounter(t *testing.T) {
	c := NewCounter(Euclidean)
	a, b := Point{0, 0}, Point{3, 4}
	if got := c.Distance(a, b); got != 5 {
		t.Errorf("counted distance = %v, want 5", got)
	}
	c.Distance(a, b)
	if got := c.Calls(); got != 2 {
		t.Errorf("Calls = %d, want 2", got)
	}
	c.Reset()
	if got := c.Calls(); got != 0 {
		t.Errorf("Calls after Reset = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter(Euclidean)
	a, b := Point{0, 0}, Point{1, 1}
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Distance(a, b)
			}
		}()
	}
	wg.Wait()
	if got := c.Calls(); got != workers*per {
		t.Errorf("Calls = %d, want %d", got, workers*per)
	}
}

func TestDistanceToSet(t *testing.T) {
	set := Dataset{{0, 0}, {10, 0}, {5, 5}}
	d, idx := DistanceToSet(Euclidean, Point{9, 1}, set)
	if idx != 1 {
		t.Errorf("closest index = %d, want 1", idx)
	}
	if math.Abs(d-math.Sqrt(2)) > 1e-12 {
		t.Errorf("distance = %v, want sqrt(2)", d)
	}
	d, idx = DistanceToSet(Euclidean, Point{0, 0}, Dataset{})
	if !math.IsInf(d, 1) || idx != -1 {
		t.Errorf("empty set: got (%v,%d), want (+Inf,-1)", d, idx)
	}
}

func TestRadius(t *testing.T) {
	points := Dataset{{0, 0}, {1, 0}, {4, 0}}
	centers := Dataset{{0, 0}}
	if got := Radius(Euclidean, points, centers); got != 4 {
		t.Errorf("Radius = %v, want 4", got)
	}
	if got := Radius(Euclidean, Dataset{}, centers); got != 0 {
		t.Errorf("Radius of empty set = %v, want 0", got)
	}
}

func TestRadiusExcluding(t *testing.T) {
	points := Dataset{{0, 0}, {1, 0}, {2, 0}, {100, 0}}
	centers := Dataset{{0, 0}}
	tests := []struct {
		name string
		z    int
		want float64
	}{
		{"no outliers", 0, 100},
		{"one outlier", 1, 2},
		{"two outliers", 2, 1},
		{"all outliers", 4, 0},
		{"more than n", 10, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := RadiusExcluding(Euclidean, points, centers, tt.z); got != tt.want {
				t.Errorf("RadiusExcluding(z=%d) = %v, want %v", tt.z, got, tt.want)
			}
		})
	}
}

func TestRadiusExcludingMatchesSortedDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(50)
		points := make(Dataset, n)
		for i := range points {
			points[i] = randomPoint(rng, 3, 10)
		}
		centers := Dataset{randomPoint(rng, 3, 10), randomPoint(rng, 3, 10)}
		z := rng.Intn(n)
		got := RadiusExcluding(Euclidean, points, centers, z)
		// Reference implementation: sort all distances, drop z largest.
		dists := make([]float64, n)
		for i, p := range points {
			dists[i], _ = DistanceToSet(Euclidean, p, centers)
		}
		sort.Float64s(dists)
		want := dists[n-z-1]
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: RadiusExcluding = %v, want %v", trial, got, want)
		}
	}
}

func TestAssign(t *testing.T) {
	points := Dataset{{0, 0}, {9, 9}, {1, 1}}
	centers := Dataset{{0, 0}, {10, 10}}
	got := Assign(Euclidean, points, centers)
	want := []int{0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Assign[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPairwiseDistancesAndDiameter(t *testing.T) {
	points := Dataset{{0, 0}, {3, 4}, {0, 1}}
	d := PairwiseDistancesIn(EuclideanSpace, points)
	if len(d) != 3 {
		t.Fatalf("len(PairwiseDistances) = %d, want 3", len(d))
	}
	if got := Diameter(Euclidean, points); got != 5 {
		t.Errorf("Diameter = %v, want 5", got)
	}
	if got := PairwiseDistancesIn(EuclideanSpace, Dataset{{1}}); got != nil {
		t.Errorf("PairwiseDistances singleton = %v, want nil", got)
	}
	if got := Diameter(Euclidean, Dataset{{1}}); got != 0 {
		t.Errorf("Diameter singleton = %v, want 0", got)
	}
}

func TestMinPairwiseDistance(t *testing.T) {
	points := Dataset{{0, 0}, {3, 4}, {0, 1}}
	if got := NewEngine(1).MinPairwiseDistance(EuclideanSpace, points); got != 1 {
		t.Errorf("MinPairwiseDistance = %v, want 1", got)
	}
	if got := NewEngine(1).MinPairwiseDistance(EuclideanSpace, Dataset{{0, 0}}); !math.IsInf(got, 1) {
		t.Errorf("MinPairwiseDistance singleton = %v, want +Inf", got)
	}
}

// checkSelect fails t unless selectInPlace returns rank k of vals, as found
// by a full sort.
func checkSelect(t *testing.T, vals []float64, k int) {
	t.Helper()
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	if got := selectInPlace(slices.Clone(vals), k); got != sorted[k] {
		t.Fatalf("selectInPlace(%v, %d) = %v, want %v", vals, k, got, sorted[k])
	}
}

// selectInputs are the value generators the selection tests draw from:
// normal, duplicate-heavy, few-distinct and ±Inf-laced.
func selectInputs(rng *rand.Rand) []func() float64 {
	return []func() float64{
		rng.NormFloat64,
		func() float64 { return float64(rng.Intn(20)) + rng.Float64()*0.001 },
		func() float64 { return float64(rng.Intn(3)) },
		func() float64 {
			switch rng.Intn(4) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return float64(rng.Intn(10))
		},
	}
}

func TestSelect(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3}
	for k, want := range []float64{1, 2, 3, 4, 5} {
		if got := selectInPlace(slices.Clone(values), k); got != want {
			t.Errorf("selectInPlace(k=%d) = %v, want %v", k, got, want)
		}
	}
	// Every rank of every small input.
	rng := rand.New(rand.NewSource(7))
	for _, next := range selectInputs(rng) {
		for n := 1; n <= 8; n++ {
			for trial := 0; trial < 20; trial++ {
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = next()
				}
				for k := range vals {
					checkSelect(t, vals, k)
				}
			}
		}
	}
}

func TestSelectMatchesSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		values := make([]float64, n)
		for i := range values {
			// Include duplicates on purpose.
			values[i] = float64(rng.Intn(20)) + rng.Float64()*0.001
		}
		k := rng.Intn(n)
		sorted := slices.Clone(values)
		slices.Sort(sorted)
		return selectInPlace(values, k) == sorted[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRankSelection(t *testing.T) {
	// selectInPlace must return the exact order statistic on random ranks of
	// larger inputs of every kind.
	rng := rand.New(rand.NewSource(11))
	for _, next := range selectInputs(rng) {
		for trial := 0; trial < 100; trial++ {
			vals := make([]float64, 1+rng.Intn(300))
			for i := range vals {
				vals[i] = next()
			}
			checkSelect(t, vals, rng.Intn(len(vals)))
		}
	}
}

func TestEstimateDoublingDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Collinear points should have a small doubling dimension estimate even in R^5.
	line := make(Dataset, 200)
	for i := range line {
		x := float64(i)
		line[i] = Point{x, 2 * x, -x, 0.5 * x, 0}
	}
	dLine := NewEngine(0).EstimateDoublingDimension(EuclideanSpace, line, 6, 4, rng)
	// A 5-dimensional cube sample should have a larger estimate than the line.
	cube := make(Dataset, 200)
	for i := range cube {
		cube[i] = randomPoint(rng, 5, 1)
	}
	dCube := NewEngine(0).EstimateDoublingDimension(EuclideanSpace, cube, 6, 4, rng)
	if dLine <= 0 {
		t.Errorf("line doubling dimension estimate = %v, want > 0", dLine)
	}
	if dCube <= dLine {
		t.Errorf("cube estimate (%v) should exceed line estimate (%v)", dCube, dLine)
	}
	if got := NewEngine(0).EstimateDoublingDimension(EuclideanSpace, Dataset{{1, 2}}, 4, 4, rng); got != 0 {
		t.Errorf("singleton estimate = %v, want 0", got)
	}
	// Defaulted parameters and nil RNG should not panic and be deterministic.
	a := NewEngine(0).EstimateDoublingDimension(EuclideanSpace, cube[:50], 0, 0, nil)
	b := NewEngine(0).EstimateDoublingDimension(EuclideanSpace, cube[:50], 0, 0, nil)
	if a != b {
		t.Errorf("nil-RNG estimate not deterministic: %v vs %v", a, b)
	}
}

func TestCoresetSizeForDimension(t *testing.T) {
	if got := CoresetSizeForDimension(10, 5, 1, 0, 0); got != 16 {
		t.Errorf("D=0 size = %d, want 16 (k+z+1)", got)
	}
	got := CoresetSizeForDimension(10, 5, 1, 1, 0)
	if got != 240 {
		t.Errorf("D=1 eps=1 size = %d, want 240", got)
	}
	if got := CoresetSizeForDimension(10, 5, 1, 3, 100); got != 100 {
		t.Errorf("clamped size = %d, want 100", got)
	}
	if got := CoresetSizeForDimension(10, 5, 0, 1, 0); got <= 0 {
		t.Errorf("eps=0 should default, got %d", got)
	}
}
