package gmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"coresetclustering/internal/metric"
)

func randomDataset(rng *rand.Rand, n, dim int, scale float64) metric.Dataset {
	ds := make(metric.Dataset, n)
	for i := range ds {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = (rng.Float64()*2 - 1) * scale
		}
		ds[i] = p
	}
	return ds
}

// clusteredDataset produces k well-separated Gaussian blobs.
func clusteredDataset(rng *rand.Rand, k, perCluster, dim int, separation, spread float64) metric.Dataset {
	var ds metric.Dataset
	for c := 0; c < k; c++ {
		center := make(metric.Point, dim)
		for j := range center {
			center[j] = float64(c) * separation
		}
		for i := 0; i < perCluster; i++ {
			p := make(metric.Point, dim)
			for j := range p {
				p[j] = center[j] + rng.NormFloat64()*spread
			}
			ds = append(ds, p)
		}
	}
	return ds
}

func TestRunErrors(t *testing.T) {
	ds := metric.Dataset{{0}, {1}}
	if _, err := (Runner{}).Run(nil, 1, 0); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := (Runner{}).Run(ds, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := (Runner{}).Run(ds, 1, 5); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := (Runner{}).RunIncremental(nil, 1, 0.5, 0, 0); err == nil {
		t.Error("incremental: empty input accepted")
	}
	if _, err := (Runner{}).RunIncremental(ds, 0, 0.5, 0, 0); err == nil {
		t.Error("incremental: k=0 accepted")
	}
	if _, err := (Runner{}).RunIncremental(ds, 1, -1, 0, 0); err == nil {
		t.Error("incremental: negative fraction accepted")
	}
	if _, err := (Runner{}).RunIncremental(ds, 1, 0.5, 0, 9); err == nil {
		t.Error("incremental: out-of-range seed accepted")
	}
	if _, err := (Runner{}).RunToSize(nil, 3, 1, 0); err == nil {
		t.Error("RunToSize: empty input accepted")
	}
	if _, err := (Runner{}).RunToSize(ds, 0, 1, 0); err == nil {
		t.Error("RunToSize: size 0 accepted")
	}
	if _, err := (Runner{}).RunToSize(ds, 1, 1, 7); err == nil {
		t.Error("RunToSize: out-of-range seed accepted")
	}
}

// TestRunNonFiniteDistance: a space that answers +Inf or NaN for every pair,
// d(x, x) included, leaves every cache at +Inf, so the farthest point would be
// a center again; each entry point must say so instead of repeating the seed
// at radius +Inf, whichever point seeds the run.
func TestRunNonFiniteDistance(t *testing.T) {
	ds := metric.Dataset{{0}, {1}, {2}, {3}}
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		r := Runner{Space: metric.SpaceFromDistance("nonfinite", func(a, b metric.Point) float64 { return v })}
		for _, seed := range []int{0, 2} {
			for name, run := range map[string]func() (*Result, error){
				"Run":            func() (*Result, error) { return r.Run(ds, 3, seed) },
				"Run(k=1)":       func() (*Result, error) { return r.Run(ds, 1, seed) },
				"RunIncremental": func() (*Result, error) { return r.RunIncremental(ds, 2, 0.5, 0, seed) },
				"RunToSize":      func() (*Result, error) { return r.RunToSize(ds, 3, 2, seed) },
			} {
				if res, err := run(); !errors.Is(err, ErrNonFiniteDistance) {
					t.Errorf("%s with d = %v, seed %d: got %+v, %v; want ErrNonFiniteDistance", name, v, seed, res, err)
				}
			}
		}
	}
}

func TestRunBasic(t *testing.T) {
	ds := metric.Dataset{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	res, err := (Runner{}).Run(ds, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 4 {
		t.Fatalf("got %d centers, want 4", len(res.Centers))
	}
	// Radius must match a direct recomputation.
	want := metric.Radius(metric.Euclidean, ds, res.Centers)
	if math.Abs(res.Radius-want) > 1e-12 {
		t.Errorf("Radius = %v, recomputed %v", res.Radius, want)
	}
	// Assignment must be consistent with the closest center.
	for i, p := range ds {
		_, idx := metric.DistanceToSet(metric.Euclidean, p, res.Centers)
		if d1 := metric.Euclidean(p, res.Centers[res.Assignment[i]]); math.Abs(d1-metric.Euclidean(p, res.Centers[idx])) > 1e-12 {
			t.Errorf("assignment for point %d not closest", i)
		}
	}
}

func TestRunKLargerThanN(t *testing.T) {
	ds := metric.Dataset{{0}, {1}, {2}}
	res, err := (Runner{}).Run(ds, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 {
		t.Fatalf("got %d centers, want 3", len(res.Centers))
	}
	if res.Radius != 0 {
		t.Errorf("radius = %v, want 0 when every point is a center", res.Radius)
	}
}

func TestRunDuplicatePoints(t *testing.T) {
	ds := metric.Dataset{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	res, err := (Runner{}).Run(ds, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 {
		t.Fatalf("got %d centers, want 3 even with duplicates", len(res.Centers))
	}
	if res.Radius != 0 {
		t.Errorf("radius = %v, want 0 (two distinct locations, three centers)", res.Radius)
	}
}

func TestTwoApproximationProperty(t *testing.T) {
	// GMM radius <= 2 * optimal radius, checked against brute force on small
	// random instances.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		k := 1 + rng.Intn(3)
		ds := randomDataset(rng, n, 2, 50)
		res, err := (Runner{}).Run(ds, k, 0)
		if err != nil {
			return false
		}
		opt, err := BruteForceOptimalRadius(metric.EuclideanSpace, ds, k)
		if err != nil {
			return false
		}
		return res.Radius <= 2*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Errorf("2-approximation violated: %v", err)
	}
}

func TestLemma1SubsetProperty(t *testing.T) {
	// Lemma 1: running GMM on a subset X of S still yields r_T(X) <= 2 r*_k(S).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		k := 1 + rng.Intn(3)
		ds := randomDataset(rng, n, 2, 50)
		// Random subset of at least k points.
		subsetSize := k + rng.Intn(n-k+1)
		perm := rng.Perm(n)[:subsetSize]
		sub := make(metric.Dataset, 0, subsetSize)
		for _, i := range perm {
			sub = append(sub, ds[i])
		}
		res, err := (Runner{}).Run(sub, k, 0)
		if err != nil {
			return false
		}
		opt, err := BruteForceOptimalRadius(metric.EuclideanSpace, ds, k)
		if err != nil {
			return false
		}
		return res.Radius <= 2*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("Lemma 1 violated: %v", err)
	}
}

func TestRadiusHistoryNonIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := randomDataset(rng, 60, 3, 10)
	hist := (Runner{}).radiusHistory(ds, 0, 0)
	if len(hist) != len(ds) {
		t.Fatalf("history length = %d, want %d", len(hist), len(ds))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i] > hist[i-1]+1e-12 {
			t.Fatalf("radius increased at step %d: %v -> %v", i, hist[i-1], hist[i])
		}
	}
	if hist[len(hist)-1] != 0 {
		t.Errorf("final radius = %v, want 0 when all points are centers", hist[len(hist)-1])
	}
}

func TestRunIncrementalStoppingRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := clusteredDataset(rng, 4, 50, 3, 100, 1)
	k := 4
	eps := 0.5
	res, err := (Runner{}).RunIncremental(ds, k, eps/2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) < k {
		t.Fatalf("selected %d centers, want >= %d", len(res.Centers), k)
	}
	// The stopping rule: final radius <= (eps/2) * radius after k centers.
	if res.Radius > (eps/2)*res.RadiusAtK+1e-12 {
		t.Errorf("stopping rule violated: radius %v > %v", res.Radius, (eps/2)*res.RadiusAtK)
	}
}

func TestRunIncrementalMaxCenters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := randomDataset(rng, 100, 3, 10)
	res, err := (Runner{}).RunIncremental(ds, 5, 0.0001, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) > 20 {
		t.Errorf("maxCenters not respected: %d centers", len(res.Centers))
	}
}

func TestRunIncrementalZeroFractionStopsAtExhaustion(t *testing.T) {
	ds := metric.Dataset{{0}, {1}, {2}, {3}}
	res, err := (Runner{}).RunIncremental(ds, 2, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// stopFraction 0 forces selecting every point (radius 0).
	if res.Radius != 0 {
		t.Errorf("radius = %v, want 0", res.Radius)
	}
	if len(res.Centers) != len(ds) {
		t.Errorf("centers = %d, want %d", len(res.Centers), len(ds))
	}
}

func TestRunToSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := randomDataset(rng, 200, 3, 10)
	res, err := (Runner{}).RunToSize(ds, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 40 {
		t.Fatalf("centers = %d, want 40", len(res.Centers))
	}
	// RadiusAtK records the radius after the first 10 centers and must be at
	// least the final radius.
	if res.RadiusAtK < res.Radius-1e-12 {
		t.Errorf("RadiusAtK (%v) < final radius (%v)", res.RadiusAtK, res.Radius)
	}
	// Requesting more centers than points caps at n.
	res2, err := (Runner{}).RunToSize(ds[:5], 50, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Centers) != 5 {
		t.Errorf("centers = %d, want 5", len(res2.Centers))
	}
	// refCenters <= 0 defaults to targetSize.
	if _, err := (Runner{}).RunToSize(ds, 10, 0, 0); err != nil {
		t.Errorf("refCenters=0 should default: %v", err)
	}
}

func TestCentersAreInputPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, 50, 4, 20)
	res, err := (Runner{}).Run(ds, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CenterIndices) != len(res.Centers) {
		t.Fatalf("indices/centers length mismatch")
	}
	seen := map[int]bool{}
	for i, ci := range res.CenterIndices {
		if ci < 0 || ci >= len(ds) {
			t.Fatalf("center index %d out of range", ci)
		}
		if seen[ci] {
			t.Fatalf("duplicate center index %d", ci)
		}
		seen[ci] = true
		if !res.Centers[i].Equal(ds[ci]) {
			t.Fatalf("center %d does not match dataset point %d", i, ci)
		}
	}
}

func TestBruteForceOptimalRadius(t *testing.T) {
	ds := metric.Dataset{{0}, {1}, {10}, {11}}
	opt, err := BruteForceOptimalRadius(metric.EuclideanSpace, ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 1 {
		t.Errorf("optimal radius = %v, want 1", opt)
	}
	if got, _ := BruteForceOptimalRadius(metric.EuclideanSpace, ds, 4); got != 0 {
		t.Errorf("k=n optimal radius = %v, want 0", got)
	}
	if _, err := BruteForceOptimalRadius(metric.EuclideanSpace, nil, 1); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := BruteForceOptimalRadius(metric.EuclideanSpace, ds, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestBruteForceOptimalRadiusWithOutliers(t *testing.T) {
	// Two tight clusters plus one far outlier: with z=1 the outlier is free.
	ds := metric.Dataset{{0}, {1}, {10}, {11}, {1000}}
	opt, err := BruteForceOptimalRadiusWithOutliers(metric.EuclideanSpace, ds, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 1 {
		t.Errorf("optimal radius with outlier = %v, want 1", opt)
	}
	noOut, err := BruteForceOptimalRadiusWithOutliers(metric.EuclideanSpace, ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if noOut <= opt {
		t.Errorf("radius without outlier budget (%v) should exceed with budget (%v)", noOut, opt)
	}
	if got, _ := BruteForceOptimalRadiusWithOutliers(metric.EuclideanSpace, ds, 3, 2); got != 0 {
		t.Errorf("k+z>=n radius = %v, want 0", got)
	}
	if _, err := BruteForceOptimalRadiusWithOutliers(metric.EuclideanSpace, nil, 1, 0); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := BruteForceOptimalRadiusWithOutliers(metric.EuclideanSpace, ds, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	// Negative z behaves as zero.
	a, _ := BruteForceOptimalRadiusWithOutliers(metric.EuclideanSpace, ds, 2, -3)
	if a != noOut {
		t.Errorf("negative z radius = %v, want %v", a, noOut)
	}
}

func TestRunSeedIndependenceOfGuarantee(t *testing.T) {
	// The 2-approximation holds for any seed.
	rng := rand.New(rand.NewSource(9))
	ds := randomDataset(rng, 12, 2, 30)
	k := 3
	opt, err := BruteForceOptimalRadius(metric.EuclideanSpace, ds, k)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < len(ds); seed++ {
		res, err := (Runner{}).Run(ds, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Radius > 2*opt+1e-9 {
			t.Errorf("seed %d: radius %v > 2*opt %v", seed, res.Radius, 2*opt)
		}
	}
}

func TestRadiusHistoryMaxCenters(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ds := randomDataset(rng, 30, 2, 10)
	hist := (Runner{}).radiusHistory(ds, 7, 0)
	if len(hist) != 7 {
		t.Errorf("history length = %d, want 7", len(hist))
	}
}
