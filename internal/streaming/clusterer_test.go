package streaming_test

// The paper's two coreset-based streaming algorithms — the doubling coreset
// of this package plus a query-time extraction — are one type,
// clusterer.Clusterer, one layer up. Their quality and determinism tests stay
// beside the doubling algorithm they exercise; they live in the external test
// package because internal/clusterer imports this one.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/sketch"
	"coresetclustering/internal/streaming"
)

func newCoresetStream(k, tau, workers int) (*clusterer.Clusterer, error) {
	return clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: k, Tau: tau, Workers: workers})
}

func newCoresetOutliers(k, z, tau int, epsHat float64, workers int) (*clusterer.Clusterer, error) {
	return clusterer.New(clusterer.Params{Kind: sketch.KindOutliers, K: k, Z: z, Tau: tau, EpsHat: epsHat, Workers: workers})
}

func feed(t *testing.T, proc streaming.Processor, ds metric.Dataset) {
	t.Helper()
	for _, p := range ds {
		if err := proc.Process(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewCoresetStreamValidation(t *testing.T) {
	if _, err := newCoresetStream(0, 5, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := newCoresetStream(5, 3, 0); err == nil {
		t.Error("tau<k accepted")
	}
	if _, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: 2, Z: 1, Tau: 8}); err == nil {
		t.Error("plain k-center stream with z>0 accepted")
	}
	if _, err := clusterer.New(clusterer.Params{K: 2, Tau: 8}); err == nil {
		t.Error("missing kind accepted")
	}
}

func TestCoresetStreamQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k := 5
	ds := streaming.ClusteredDataset(rng, k, 200, 3, 100, 1)
	cs, err := newCoresetStream(k, 8*k, 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, cs, ds)
	centers, err := cs.Centers()
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != k {
		t.Fatalf("centers = %d, want %d", len(centers), k)
	}
	r := metric.Radius(metric.Euclidean, ds, centers)
	if r > 20 {
		t.Errorf("radius = %v, want small for well-separated blobs", r)
	}
	if cs.WorkingMemory() > 8*k {
		t.Errorf("working memory = %d exceeds tau = %d", cs.WorkingMemory(), 8*k)
	}
	if cs.Processed() != int64(len(ds)) {
		t.Errorf("processed = %d, want %d", cs.Processed(), len(ds))
	}
	empty, err := newCoresetStream(1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Centers(); err == nil {
		t.Error("Centers on empty stream should fail")
	}
}

func TestCoresetStreamTwoPlusEpsShape(t *testing.T) {
	// Against brute force on small instances, the streaming algorithm with a
	// generous tau stays within a small constant factor of optimal.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 15 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		ds := streaming.RandomDataset(rng, n, 2, 50)
		cs, err := newCoresetStream(k, 4*k, 0)
		if err != nil {
			return false
		}
		for _, p := range ds {
			if err := cs.Process(p); err != nil {
				return false
			}
		}
		centers, err := cs.Centers()
		if err != nil {
			return false
		}
		opt, err := gmm.BruteForceOptimalRadius(metric.EuclideanSpace, ds, k)
		if err != nil {
			return false
		}
		if opt == 0 {
			return true
		}
		r := metric.Radius(metric.Euclidean, ds, centers)
		// The worst-case guarantee with a size-limited coreset is weaker than
		// 2+eps, but it must stay within the doubling algorithm's constant.
		return r <= 10*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Errorf("streaming k-center quality out of range: %v", err)
	}
}

func TestNewCoresetOutliersValidation(t *testing.T) {
	if _, err := newCoresetOutliers(0, 1, 5, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := newCoresetOutliers(1, -1, 5, 0, 0); err == nil {
		t.Error("z<0 accepted")
	}
	if _, err := newCoresetOutliers(3, 3, 4, 0, 0); err == nil {
		t.Error("tau<k+z accepted")
	}
	if _, err := newCoresetOutliers(1, 1, 5, -0.1, 0); err == nil {
		t.Error("negative epsHat accepted")
	}
}

func TestCoresetOutliersQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	k, z := 3, 8
	base := streaming.ClusteredDataset(rng, k, 150, 2, 100, 1)
	ds := streaming.WithOutliers(rng, base, z)
	co, err := newCoresetOutliers(k, z, 4*(k+z), 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, co, ds)
	res, err := co.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) > k {
		t.Fatalf("centers = %d, want <= %d", len(res.Centers), k)
	}
	if res.UncoveredWeight > int64(z) {
		t.Errorf("uncovered weight = %d, want <= %d", res.UncoveredWeight, z)
	}
	r := metric.RadiusExcluding(metric.Euclidean, ds, res.Centers, z)
	if r > 20 {
		t.Errorf("outlier-aware radius = %v, want small", r)
	}
	if co.WorkingMemory() > 4*(k+z) {
		t.Errorf("working memory %d exceeds tau %d", co.WorkingMemory(), 4*(k+z))
	}
	if co.Processed() != int64(len(ds)) {
		t.Errorf("processed = %d, want %d", co.Processed(), len(ds))
	}
}

func TestCoresetOutliersEmptyResult(t *testing.T) {
	co, err := newCoresetOutliers(1, 0, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Result(); err == nil {
		t.Error("Result on empty stream should fail")
	}
}

func TestCoresetOutliersBeatsBaseOutliersSpaceShape(t *testing.T) {
	// Figure 5's qualitative claim: at comparable quality CoresetOutliers
	// uses far less memory than BaseOutliers. We check the memory ordering
	// directly for the standard parameterisation mu = m = 2.
	rng := rand.New(rand.NewSource(9))
	k, z := 3, 10
	base := streaming.ClusteredDataset(rng, k, 100, 2, 100, 1)
	ds := streaming.WithOutliers(rng, base, z)

	co, err := newCoresetOutliers(k, z, 2*(k+z), 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	bo, err := streaming.NewBaseOutliers(nil, k, z, 2)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, co, ds)
	feed(t, bo, ds)
	if co.WorkingMemory() >= bo.WorkingMemory() {
		t.Errorf("CoresetOutliers memory (%d) not below BaseOutliers memory (%d)",
			co.WorkingMemory(), bo.WorkingMemory())
	}
}

func parallelStreamDataset(n, dim int, seed int64) metric.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := make(metric.Dataset, n)
	for i := range ds {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		ds[i] = p
	}
	return ds
}

// TestCoresetStreamDeterminismAcrossWorkers: the query-time extraction must
// return bit-identical centers whether it runs sequentially or on the
// parallel engine; the maintained coreset itself is worker-independent by
// construction (Process is sequential).
func TestCoresetStreamDeterminismAcrossWorkers(t *testing.T) {
	ds := parallelStreamDataset(5000, 3, 17)
	build := func(workers int) metric.Dataset {
		s, err := newCoresetStream(10, 200, workers)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, ds)
		centers, err := s.Centers()
		if err != nil {
			t.Fatal(err)
		}
		return centers
	}
	want := build(1)
	got := build(8)
	if len(got) != len(want) {
		t.Fatalf("%d centers, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("center %d differs: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestCoresetOutliersDeterminismAcrossWorkers: same contract for the
// outlier-aware streamer, whose query runs the parallel radius search.
func TestCoresetOutliersDeterminismAcrossWorkers(t *testing.T) {
	ds := parallelStreamDataset(3000, 3, 29)
	build := func(workers int) *clusterer.Result {
		s, err := newCoresetOutliers(6, 12, 120, 0.25, workers)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, s, ds)
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := build(1)
	got := build(8)
	if got.SearchRadius != want.SearchRadius {
		t.Fatalf("search radius = %v, want %v", got.SearchRadius, want.SearchRadius)
	}
	if got.UncoveredWeight != want.UncoveredWeight {
		t.Fatalf("uncovered weight = %d, want %d", got.UncoveredWeight, want.UncoveredWeight)
	}
	if len(got.Centers) != len(want.Centers) {
		t.Fatalf("%d centers, want %d", len(got.Centers), len(want.Centers))
	}
	for i := range want.Centers {
		if !got.Centers[i].Equal(want.Centers[i]) {
			t.Fatalf("center %d differs", i)
		}
	}
}
