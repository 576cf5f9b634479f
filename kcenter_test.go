package kcenter

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
)

func blobs(rng *rand.Rand, k, perCluster, dim int, separation, spread float64) Dataset {
	var ds Dataset
	for c := 0; c < k; c++ {
		center := make(Point, dim)
		for j := range center {
			center[j] = float64(c) * separation
		}
		for i := 0; i < perCluster; i++ {
			p := make(Point, dim)
			for j := range p {
				p[j] = center[j] + rng.NormFloat64()*spread
			}
			ds = append(ds, p)
		}
	}
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

func withFarOutliers(ds Dataset, n int) Dataset {
	dim := ds.Dim()
	out := ds.Clone()
	for i := 0; i < n; i++ {
		p := make(Point, dim)
		for j := range p {
			p[j] = 1e6 + float64(i)*1e4
		}
		out = append(out, p)
	}
	return out
}

func TestClusterValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := blobs(rng, 2, 20, 2, 100, 1)
	if _, err := Cluster(nil, 2); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Cluster(Dataset{{1, math.NaN()}}, 1); err == nil {
		t.Error("NaN dataset accepted")
	}
	if _, err := Cluster(ds, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Cluster(ds, 2, WithPrecision(-1)); err == nil {
		t.Error("negative precision accepted")
	}
	if _, err := Cluster(ds, 2, WithCoresetMultiplier(-1)); err == nil {
		t.Error("negative multiplier accepted")
	}
	if _, err := Cluster(ds, 2, WithPartitions(-1)); err == nil {
		t.Error("negative partitions accepted")
	}
}

func TestClusterBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := 4
	ds := blobs(rng, k, 100, 3, 100, 1)
	res, err := Cluster(ds, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != k {
		t.Fatalf("centers = %d, want %d", len(res.Centers), k)
	}
	if res.Radius > 10 {
		t.Errorf("radius = %v, want small for separated blobs", res.Radius)
	}
	if len(res.Assignment) != len(ds) {
		t.Errorf("assignment length = %d, want %d", len(res.Assignment), len(ds))
	}
	if res.Stats.Partitions <= 0 || res.Stats.CoresetUnionSize <= 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	// Radius is consistent with the assignment.
	var maxd float64
	for i, p := range ds {
		if d := Euclidean(p, res.Centers[res.Assignment[i]]); d > maxd {
			maxd = d
		}
	}
	if math.Abs(maxd-res.Radius) > 1e-9 {
		t.Errorf("radius %v inconsistent with assignment-derived %v", res.Radius, maxd)
	}
}

func TestClusterKAtLeastN(t *testing.T) {
	ds := Dataset{{1}, {2}, {3}}
	res, err := Cluster(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius != 0 || len(res.Centers) != 3 {
		t.Errorf("degenerate clustering wrong: radius=%v centers=%d", res.Radius, len(res.Centers))
	}
}

func TestClusterOptionsVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := blobs(rng, 3, 60, 2, 80, 1)
	if _, err := Cluster(ds, 3, WithPrecision(0.5), WithParallelism(2)); err != nil {
		t.Errorf("precision rule failed: %v", err)
	}
	if _, err := Cluster(ds, 3, WithPartitions(3), WithCoresetMultiplier(2), WithDistance(Manhattan)); err != nil {
		t.Errorf("explicit partitions failed: %v", err)
	}
}

func TestClusterApproximationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(12)
		k := 1 + rng.Intn(3)
		ds := make(Dataset, n)
		for i := range ds {
			ds[i] = Point{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		}
		res, err := Cluster(ds, k, WithPrecision(0.5))
		if err != nil {
			return false
		}
		opt, err := gmm.BruteForceOptimalRadius(metric.EuclideanSpace, ds, k)
		if err != nil {
			return false
		}
		return res.Radius <= 2.5*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Errorf("(2+eps) bound violated: %v", err)
	}
}

func TestClusterWithOutliersValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := blobs(rng, 2, 20, 2, 100, 1)
	if _, err := ClusterWithOutliers(nil, 2, 1); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := ClusterWithOutliers(ds, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ClusterWithOutliers(ds, 2, -1); err == nil {
		t.Error("negative z accepted")
	}
	if _, err := ClusterWithOutliers(Dataset{{math.Inf(1)}}, 1, 0); err == nil {
		t.Error("Inf dataset accepted")
	}
}

func TestClusterWithOutliersBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k, z := 3, 5
	base := blobs(rng, k, 60, 2, 100, 1)
	ds := withFarOutliers(base, z)
	res, err := ClusterWithOutliers(ds, k, z)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 || len(res.Centers) > k {
		t.Fatalf("centers = %d, want in (0,%d]", len(res.Centers), k)
	}
	if res.Radius > 20 {
		t.Errorf("outlier-aware radius = %v, want small", res.Radius)
	}
	if len(res.Outliers) != z {
		t.Fatalf("outliers = %d, want %d", len(res.Outliers), z)
	}
	// The reported outliers should be exactly the injected far points.
	for _, oi := range res.Outliers {
		if oi < len(base) {
			t.Errorf("reported outlier %d is an original point", oi)
		}
	}
	if len(res.Assignment) != len(ds) {
		t.Errorf("assignment length = %d, want %d", len(res.Assignment), len(ds))
	}
}

func TestClusterWithOutliersRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k, z := 3, 6
	base := blobs(rng, k, 60, 2, 100, 1)
	ds := withFarOutliers(base, z)
	res, err := ClusterWithOutliers(ds, k, z, WithRandomizedPartitioning(42), WithCoresetMultiplier(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius > 20 {
		t.Errorf("randomized radius = %v, want small", res.Radius)
	}
}

func TestClusterWithOutliersPrecisionRule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k, z := 2, 3
	base := blobs(rng, k, 30, 2, 80, 1)
	ds := withFarOutliers(base, z)
	res, err := ClusterWithOutliers(ds, k, z, WithPrecision(1.0), WithPartitions(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius > 20 {
		t.Errorf("precision-rule radius = %v, want small", res.Radius)
	}
}

func TestClusterWithOutliersDegenerate(t *testing.T) {
	ds := Dataset{{1}, {2}, {3}}
	res, err := ClusterWithOutliers(ds, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius != 0 {
		t.Errorf("degenerate radius = %v, want 0", res.Radius)
	}
	if len(res.Centers) > 2 {
		t.Errorf("degenerate centers = %d, want <= 2", len(res.Centers))
	}
}

func TestGonzalez(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := blobs(rng, 3, 50, 2, 100, 1)
	res, err := Gonzalez(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 3 {
		t.Fatalf("centers = %d, want 3", len(res.Centers))
	}
	if res.Radius > 10 {
		t.Errorf("radius = %v, want small", res.Radius)
	}
	if _, err := Gonzalez(nil, 1); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Gonzalez(ds, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Gonzalez(Dataset{{math.NaN()}}, 1); err == nil {
		t.Error("NaN accepted")
	}
}

func TestEstimateDoublingDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := blobs(rng, 2, 100, 3, 50, 1)
	d, err := EstimateDoublingDimension(ds)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 || d > 10 {
		t.Errorf("doubling dimension estimate = %v out of plausible range", d)
	}
	if _, err := EstimateDoublingDimension(nil); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestStreamingKCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	k := 4
	ds := blobs(rng, k, 150, 3, 100, 1)
	s, err := NewStreamingKCenter(k, 8*k)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveAll(ds); err != nil {
		t.Fatal(err)
	}
	centers, err := s.Centers()
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != k {
		t.Fatalf("centers = %d, want %d", len(centers), k)
	}
	if r := metric.Radius(Euclidean, ds, centers); r > 20 {
		t.Errorf("streaming radius = %v, want small", r)
	}
	if s.WorkingMemory() > 8*k {
		t.Errorf("working memory %d exceeds budget %d", s.WorkingMemory(), 8*k)
	}
	if s.Observed() != int64(len(ds)) {
		t.Errorf("observed = %d, want %d", s.Observed(), len(ds))
	}
	if err := s.Observe(nil); err == nil {
		t.Error("nil point accepted")
	}
	if _, err := NewStreamingKCenter(0, 5); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewStreamingKCenter(5, 2); err == nil {
		t.Error("budget < k accepted")
	}
}

func TestStreamingOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k, z := 3, 6
	base := blobs(rng, k, 100, 2, 100, 1)
	ds := withFarOutliers(base, z)
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	s, err := NewStreamingOutliers(k, z, 4*(k+z))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveAll(ds); err != nil {
		t.Fatal(err)
	}
	centers, err := s.Centers()
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) == 0 || len(centers) > k {
		t.Fatalf("centers = %d, want in (0,%d]", len(centers), k)
	}
	if r := metric.RadiusExcluding(Euclidean, ds, centers, z); r > 20 {
		t.Errorf("streaming outlier-aware radius = %v, want small", r)
	}
	if s.WorkingMemory() > 4*(k+z) {
		t.Errorf("working memory %d exceeds budget", s.WorkingMemory())
	}
	if s.Observed() != int64(len(ds)) {
		t.Errorf("observed = %d, want %d", s.Observed(), len(ds))
	}
	if err := s.Observe(nil); err == nil {
		t.Error("nil point accepted")
	}
	if _, err := NewStreamingOutliers(0, 1, 5); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewStreamingOutliers(2, 2, 3); err == nil {
		t.Error("budget < k+z accepted")
	}
}

func TestDefaultEll(t *testing.T) {
	if got := defaultEll(10000, 100); got != 10 {
		t.Errorf("defaultEll(10000,100) = %d, want 10", got)
	}
	if got := defaultEll(5, 100); got != 1 {
		t.Errorf("defaultEll small = %d, want 1", got)
	}
	if got := defaultEll(100, 0); got <= 0 {
		t.Errorf("defaultEll kz=0 = %d, want positive", got)
	}
}

// referenceFarthestIndices is the O(z·n) selection farthestIndices replaced:
// z full scans, each taking the first of the farthest points not yet taken.
// It is the oracle for every input without NaN.
func referenceFarthestIndices(dists []float64, z int) []int {
	if z <= 0 || len(dists) == 0 {
		return nil
	}
	if z > len(dists) {
		z = len(dists)
	}
	taken := make([]bool, len(dists))
	out := make([]int, 0, z)
	for len(out) < z {
		best := -1
		for i, d := range dists {
			if !taken[i] && (best < 0 || d > dists[best]) {
				best = i
			}
		}
		out = append(out, best)
		taken[best] = true
	}
	return out
}

func TestFarthestIndices(t *testing.T) {
	points := Dataset{{0}, {1}, {50}, {100}}
	centers := Dataset{{0}}
	dists, _ := metric.NewEngine(1).NearestBatch(metric.EuclideanSpace, points, centers)
	got := farthestIndices(dists, 2)
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("farthestIndices = %v, want [3 2]", got)
	}
	if got := farthestIndices(dists, 0); got != nil {
		t.Errorf("z=0 should return nil, got %v", got)
	}
	if got := farthestIndices(dists, 10); len(got) != 4 {
		t.Errorf("z>n should clamp, got %v", got)
	}
	if got := farthestIndices(nil, 1); got != nil {
		t.Errorf("empty distances should return nil, got %v", got)
	}

	inf := math.Inf(1)
	fixed := [][]float64{
		{3, 3, 3, 3, 3},
		{1, 5, 5, 2, 5, 1},
		{inf, 0, inf, 7, inf},
		{0, 0, 0},
		{2},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Few distinct values, so ties are the rule; +Inf and 0 among them.
		d := make([]float64, 1+rng.Intn(60))
		for i := range d {
			switch r := rng.Intn(10); r {
			case 0:
				d[i] = inf
			default:
				d[i] = float64(r - 1)
			}
		}
		fixed = append(fixed, d)
	}
	for _, d := range fixed {
		n := len(d)
		for _, z := range []int{0, 1, 2, n / 2, n - 1, n, n + 1, 3 * n} {
			want := referenceFarthestIndices(d, z)
			if got := farthestIndices(d, z); !slices.Equal(got, want) {
				t.Fatalf("farthestIndices(%v, %d) = %v, want %v", d, z, got, want)
			}
		}
	}
}

// BenchmarkFarthestIndices times the outlier pick of the mr_outliers
// benchmark workload: 50 000 inliers plus 32 planted outliers, z = 32.
func BenchmarkFarthestIndices(b *testing.B) {
	const n, z = 50032, 32
	rng := rand.New(rand.NewSource(1))
	dists := make([]float64, n)
	for i := range dists {
		dists[i] = rng.ExpFloat64()
	}
	for i := n - z; i < n; i++ {
		dists[i] = 2000 + rng.Float64()
	}
	for b.Loop() {
		farthestIndices(dists, z)
	}
}
