package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coresetclustering/internal/gmm"
	"coresetclustering/internal/mapreduce"
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

// withOutliers appends far-away points to the dataset and returns the indices
// of the appended points.
func withOutliers(ds metric.Dataset, nOut int) (metric.Dataset, []int) {
	dim := ds.Dim()
	out := ds.Clone()
	idx := make([]int, 0, nOut)
	for o := 0; o < nOut; o++ {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = 1e6 + float64(o)*1e4
		}
		idx = append(idx, len(out))
		out = append(out, p)
	}
	return out, idx
}

func TestKCenterConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := randomDataset(rng, 50, 2, 10)
	cases := []struct {
		name string
		cfg  KCenterConfig
		pts  metric.Dataset
	}{
		{"empty", KCenterConfig{K: 2, Ell: 2, CoresetSize: 4}, nil},
		{"k zero", KCenterConfig{K: 0, Ell: 2, CoresetSize: 4}, ds},
		{"k too large", KCenterConfig{K: 50, Ell: 2, CoresetSize: 4}, ds},
		{"ell zero", KCenterConfig{K: 2, Ell: 0, CoresetSize: 4}, ds},
		{"neither eps nor size", KCenterConfig{K: 2, Ell: 2}, ds},
		{"both eps and size", KCenterConfig{K: 2, Ell: 2, Eps: 0.5, CoresetSize: 4}, ds},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := KCenter(tt.pts, tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestKCenterBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := 4
	ds := clusteredDataset(rng, k, 100, 3, 100, 1)
	res, err := KCenter(ds, KCenterConfig{K: k, Ell: 4, CoresetSize: 4 * k})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != k {
		t.Fatalf("centers = %d, want %d", len(res.Centers), k)
	}
	// The blobs have stddev 1 and separation 100; a good clustering has a
	// radius of a few units.
	if res.Radius > 10 {
		t.Errorf("radius = %v, want small for well-separated blobs", res.Radius)
	}
	if res.CoresetUnionSize != 4*4*k {
		t.Errorf("coreset union size = %d, want %d", res.CoresetUnionSize, 4*4*k)
	}
	if len(res.PartitionSizes) != 4 || len(res.CoresetSizes) != 4 {
		t.Errorf("per-partition bookkeeping missing: %v %v", res.PartitionSizes, res.CoresetSizes)
	}
	if res.LocalMemoryPeak <= 0 {
		t.Error("local memory peak not recorded")
	}
}

func TestKCenterEpsRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := 3
	ds := clusteredDataset(rng, k, 80, 2, 50, 0.5)
	res, err := KCenter(ds, KCenterConfig{K: k, Ell: 2, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != k {
		t.Fatalf("centers = %d, want %d", len(res.Centers), k)
	}
}

func TestKCenterTwoPlusEpsApproximationProperty(t *testing.T) {
	// Theorem 1: the MapReduce algorithm is a (2+eps)-approximation. With the
	// eps-driven rule we verify radius <= (2+eps) * optimal on small random
	// instances (brute-force optimum).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		eps := 0.5
		ds := randomDataset(rng, n, 2, 50)
		res, err := KCenter(ds, KCenterConfig{K: k, Ell: 2, Eps: eps})
		if err != nil {
			return false
		}
		opt, err := gmm.BruteForceOptimalRadius(metric.EuclideanSpace, ds, k)
		if err != nil {
			return false
		}
		return res.Radius <= (2+eps)*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("(2+eps)-approximation violated: %v", err)
	}
}

func TestKCenterLargerCoresetsImproveQuality(t *testing.T) {
	// The headline experimental claim of Figure 2: increasing the coreset
	// multiplier mu does not worsen (and typically improves) the radius.
	rng := rand.New(rand.NewSource(4))
	k := 8
	ds := clusteredDataset(rng, k, 60, 5, 20, 2)
	radii := make([]float64, 0, 3)
	for _, mu := range []int{1, 4, 16} {
		res, err := KCenter(ds, KCenterConfig{K: k, Ell: 4, CoresetSize: mu * k})
		if err != nil {
			t.Fatal(err)
		}
		radii = append(radii, res.Radius)
	}
	if radii[2] > radii[0]*1.1 {
		t.Errorf("mu=16 radius (%v) much worse than mu=1 radius (%v)", radii[2], radii[0])
	}
}

func TestSequentialKCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k := 3
	ds := clusteredDataset(rng, k, 60, 2, 100, 1)
	res, err := KCenter(ds, KCenterConfig{K: k, Ell: 1, CoresetSize: 6 * k, Parallelism: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != k {
		t.Fatalf("centers = %d, want %d", len(res.Centers), k)
	}
	if res.Radius > 10 {
		t.Errorf("radius = %v, want small", res.Radius)
	}
}

func TestOutliersConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := randomDataset(rng, 50, 2, 10)
	cases := []struct {
		name string
		cfg  OutliersConfig
		pts  metric.Dataset
	}{
		{"empty", OutliersConfig{K: 2, Z: 2, Ell: 2, CoresetSize: 8}, nil},
		{"k zero", OutliersConfig{K: 0, Z: 2, Ell: 2, CoresetSize: 8}, ds},
		{"negative z", OutliersConfig{K: 2, Z: -1, Ell: 2, CoresetSize: 8}, ds},
		{"k+z too large", OutliersConfig{K: 25, Z: 25, Ell: 2, CoresetSize: 8}, ds},
		{"ell zero", OutliersConfig{K: 2, Z: 2, Ell: 0, CoresetSize: 8}, ds},
		{"no size no eps", OutliersConfig{K: 2, Z: 2, Ell: 2}, ds},
		{"negative eps", OutliersConfig{K: 2, Z: 2, Ell: 2, EpsHat: -1}, ds},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := KCenterOutliers(tt.pts, tt.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestKCenterOutliersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := 3
	base := clusteredDataset(rng, k, 60, 2, 100, 1)
	nOut := 5
	ds, _ := withOutliers(base, nOut)
	res, err := KCenterOutliers(ds, OutliersConfig{
		K: k, Z: nOut, Ell: 4, CoresetSize: 2 * (k + nOut), EpsHat: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) > k {
		t.Fatalf("centers = %d, want <= %d", len(res.Centers), k)
	}
	if res.UncoveredWeight > int64(nOut) {
		t.Errorf("uncovered weight = %d, want <= %d", res.UncoveredWeight, nOut)
	}
	// Excluding the outliers the radius should be small.
	if res.Radius > 20 {
		t.Errorf("outlier-aware radius = %v, want small", res.Radius)
	}
	if res.ReferenceCenters != k+nOut {
		t.Errorf("reference centers = %d, want %d", res.ReferenceCenters, k+nOut)
	}
	if res.CoresetTime < 0 || res.SolveTime < 0 {
		t.Error("negative phase durations")
	}
	if res.RadiusEvaluations <= 0 {
		t.Error("radius evaluations not recorded")
	}
}

func TestKCenterOutliersRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	k := 3
	base := clusteredDataset(rng, k, 60, 2, 100, 1)
	nOut := 6
	ds, _ := withOutliers(base, nOut)
	res, err := KCenterOutliers(ds, OutliersConfig{
		K: k, Z: nOut, Ell: 4, CoresetSize: 2 * (k + nOut), EpsHat: 0.25,
		Randomized: true, Rand: rand.New(rand.NewSource(99)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius > 20 {
		t.Errorf("outlier-aware radius = %v, want small", res.Radius)
	}
	// The randomized reference count uses z' = 6(z/ell + log2 n) >= k+z/ell.
	if res.ReferenceCenters <= k {
		t.Errorf("reference centers = %d, want > k", res.ReferenceCenters)
	}
}

func TestKCenterOutliersAdversarialPartitioning(t *testing.T) {
	// Figure 4 scenario: all outliers adversarially placed in one partition.
	// With a large enough coreset the deterministic algorithm still recovers
	// a good clustering.
	rng := rand.New(rand.NewSource(9))
	k := 3
	base := clusteredDataset(rng, k, 50, 2, 100, 1)
	nOut := 6
	ds, outIdx := withOutliers(base, nOut)
	res, err := KCenterOutliers(ds, OutliersConfig{
		K: k, Z: nOut, Ell: 4,
		CoresetSize: 4 * (k + nOut),
		EpsHat:      0.25,
		Partitioner: mapreduce.AdversarialPartitioner{Targeted: outIdx},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius > 20 {
		t.Errorf("adversarial partitioning radius = %v, want small with mu=4", res.Radius)
	}
}

func TestKCenterOutliersThreePlusEpsApproximationProperty(t *testing.T) {
	// Theorem 2: (3+eps)-approximation. Verified against brute force with the
	// eps-driven rule on small instances.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 14 + rng.Intn(8)
		k := 1 + rng.Intn(2)
		z := rng.Intn(3)
		eps := 0.6
		epsHat := eps / 6
		ds := randomDataset(rng, n, 2, 50)
		res, err := KCenterOutliers(ds, OutliersConfig{K: k, Z: z, Ell: 2, EpsHat: epsHat})
		if err != nil {
			return false
		}
		opt, err := gmm.BruteForceOptimalRadiusWithOutliers(metric.EuclideanSpace, ds, k, z)
		if err != nil {
			return false
		}
		return res.Radius <= (3+eps)*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Errorf("(3+eps)-approximation violated: %v", err)
	}
}

func TestSequentialKCenterOutliersBeatsBaselineSpeedShape(t *testing.T) {
	// The sequential ell=1 algorithm must produce a feasible solution whose
	// radius is comparable to the coreset-free baseline on a clustered
	// dataset (Figure 8's qualitative claim). We only assert feasibility and
	// a sane radius here; the speed comparison lives in the benchmarks.
	rng := rand.New(rand.NewSource(10))
	k := 3
	base := clusteredDataset(rng, k, 50, 2, 100, 1)
	nOut := 4
	ds, _ := withOutliers(base, nOut)
	res, err := SequentialKCenterOutliers(ds, k, nOut, 4*(k+nOut), 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius > 20 {
		t.Errorf("sequential radius = %v, want small", res.Radius)
	}
}

func TestRandomizedOutlierBound(t *testing.T) {
	// z' = 6(z/ell + log2 n)
	got := randomizedOutlierBound(200, 16, 1<<20)
	want := 6 * (200.0/16.0 + 20.0)
	if float64(got) < want || float64(got) > want+1 {
		t.Errorf("randomizedOutlierBound = %d, want ceil(%v)", got, want)
	}
	if got := randomizedOutlierBound(10, 0, 1024); got <= 0 {
		t.Errorf("ell=0 bound = %d, want positive", got)
	}
}

func TestLemma7OutlierDistributionProperty(t *testing.T) {
	// Lemma 7: with random partitioning, with high probability every
	// partition contains at most z' = 6(z/ell + log2 n) of the z designated
	// outliers. We verify it empirically over repeated random partitionings.
	rng := rand.New(rand.NewSource(11))
	base := clusteredDataset(rng, 3, 200, 2, 100, 1)
	nOut := 40
	ds, outIdx := withOutliers(base, nOut)
	outSet := map[string]bool{}
	for _, i := range outIdx {
		outSet[ds[i].String()] = true
	}
	ell := 8
	bound := randomizedOutlierBound(nOut, ell, len(ds))
	for trial := 0; trial < 20; trial++ {
		parts, err := (mapreduce.RandomPartitioner{Rand: rng}).Partition(ds, ell)
		if err != nil {
			t.Fatal(err)
		}
		for pi, part := range parts {
			count := 0
			for _, p := range part {
				if outSet[p.String()] {
					count++
				}
			}
			if count > bound {
				t.Fatalf("trial %d partition %d holds %d outliers, bound %d", trial, pi, count, bound)
			}
		}
	}
}

func TestKCenterOutliersEpsOnlyRule(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	base := clusteredDataset(rng, 2, 40, 2, 60, 1)
	ds, _ := withOutliers(base, 3)
	res, err := KCenterOutliers(ds, OutliersConfig{K: 2, Z: 3, Ell: 2, EpsHat: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) == 0 {
		t.Fatal("no centers returned")
	}
	if res.UncoveredWeight > 3 {
		t.Errorf("uncovered weight = %d, want <= 3", res.UncoveredWeight)
	}
}
