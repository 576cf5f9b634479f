package kcenter

// Determinism goldens and property tests for the parallel distance engine:
// the public API must produce bit-identical results for any WithWorkers
// setting, and the coreset algorithms must respect both the paper's quality
// guarantee and their distance-evaluation budgets whether they run
// sequentially or in parallel.

import (
	"math/rand"
	"testing"

	"coresetclustering/internal/core"
	"coresetclustering/internal/mapreduce"
	"coresetclustering/internal/metric"
)

// clusteredTestData generates a mixture of well-separated Gaussian blobs:
// low doubling dimension, the regime the paper's guarantees are stated for.
func clusteredTestData(n, dim, blobs int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]Point, blobs)
	for b := range centers {
		c := make(Point, dim)
		for j := range c {
			c[j] = rng.Float64() * 100
		}
		centers[b] = c
	}
	ds := make(Dataset, n)
	for i := range ds {
		c := centers[rng.Intn(blobs)]
		p := make(Point, dim)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()
		}
		ds[i] = p
	}
	return ds
}

func requireSameClustering(t *testing.T, label string, want, got *Clustering) {
	t.Helper()
	if got.Radius != want.Radius {
		t.Fatalf("%s: radius = %v, want %v", label, got.Radius, want.Radius)
	}
	if len(got.Centers) != len(want.Centers) {
		t.Fatalf("%s: %d centers, want %d", label, len(got.Centers), len(want.Centers))
	}
	for i := range want.Centers {
		if !got.Centers[i].Equal(want.Centers[i]) {
			t.Fatalf("%s: center %d differs: %v vs %v", label, i, got.Centers[i], want.Centers[i])
		}
	}
	for i := range want.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			t.Fatalf("%s: assignment[%d] = %d, want %d", label, i, got.Assignment[i], want.Assignment[i])
		}
	}
}

// TestClusterDeterminismAcrossWorkers is the public-API golden: same data,
// same options, sequential (WithWorkers(1)) versus WithWorkers(8) — centers,
// radius and assignment must match bit for bit.
func TestClusterDeterminismAcrossWorkers(t *testing.T) {
	ds := clusteredTestData(10000, 4, 12, 1)
	want, err := Cluster(ds, 10, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Cluster(ds, 10, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	requireSameClustering(t, "Cluster", want, got)
}

// TestGonzalezDeterminismAcrossWorkers: same golden for the sequential
// baseline entry point, which above the engine cutoff runs its scans in
// parallel.
func TestGonzalezDeterminismAcrossWorkers(t *testing.T) {
	ds := clusteredTestData(9000, 3, 10, 2)
	want, err := Gonzalez(ds, 15, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Gonzalez(ds, 15, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	requireSameClustering(t, "Gonzalez", want, got)
}

// TestClusterWithOutliersDeterminismAcrossWorkers: the outlier pipeline
// (coresets, radius search, covering loop, outlier selection) under both
// partitioning variants.
func TestClusterWithOutliersDeterminismAcrossWorkers(t *testing.T) {
	ds := clusteredTestData(9000, 3, 8, 3)
	for _, opts := range [][]Option{
		nil,
		{WithRandomizedPartitioning(99)},
	} {
		seqOpts := append(append([]Option{}, opts...), WithWorkers(1))
		parOpts := append(append([]Option{}, opts...), WithWorkers(8))
		want, err := ClusterWithOutliers(ds, 6, 20, seqOpts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ClusterWithOutliers(ds, 6, 20, parOpts...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Radius != want.Radius {
			t.Fatalf("radius = %v, want %v", got.Radius, want.Radius)
		}
		for i := range want.Centers {
			if !got.Centers[i].Equal(want.Centers[i]) {
				t.Fatalf("center %d differs", i)
			}
		}
		if len(got.Outliers) != len(want.Outliers) {
			t.Fatalf("%d outliers, want %d", len(got.Outliers), len(want.Outliers))
		}
		for i := range want.Outliers {
			if got.Outliers[i] != want.Outliers[i] {
				t.Fatalf("outlier[%d] = %d, want %d", i, got.Outliers[i], want.Outliers[i])
			}
		}
		for i := range want.Assignment {
			if got.Assignment[i] != want.Assignment[i] {
				t.Fatalf("assignment[%d] = %d, want %d", i, got.Assignment[i], want.Assignment[i])
			}
		}
	}
}

// TestStreamingDeterminismAcrossWorkers: the streaming wrappers' query-time
// extraction must be worker-independent too.
func TestStreamingDeterminismAcrossWorkers(t *testing.T) {
	ds := clusteredTestData(4000, 3, 6, 4)
	extract := func(workers int) Dataset {
		s, err := NewStreamingKCenter(8, 120, WithWorkers(workers))
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
		return centers
	}
	want := extract(1)
	got := extract(8)
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("streaming center %d differs", i)
		}
	}
}

// TestCoresetQualityProperty is the property test for the paper's central
// guarantee (Theorem 1): on random bounded-doubling-dimension data, the
// coreset-then-cluster radius is within (2+eps) of the OPTIMAL radius. Since
// Gonzalez is itself at least OPT, the verifiable property is
//
//	radius(Cluster with precision eps) <= (2+eps) * radius(Gonzalez),
//
// for every sampled eps. Alongside quality, the test asserts the
// distance-call budget: parallel runs must perform exactly as many distance
// evaluations as sequential ones (parallelism reschedules work, it must
// never add work).
func TestCoresetQualityProperty(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		ds := clusteredTestData(6000, 3, 9, seed)
		k := 9
		gonz, err := Gonzalez(ds, k, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.25, 0.5, 1.0} {
			run := func(workers int) (*Clustering, int64) {
				counter := metric.NewCounter(metric.Euclidean)
				res, err := Cluster(ds, k,
					WithDistance(counter.Distance),
					WithPrecision(eps),
					WithWorkers(workers),
				)
				if err != nil {
					t.Fatal(err)
				}
				return res, counter.Calls()
			}
			seqRes, seqCalls := run(1)
			parRes, parCalls := run(8)

			bound := (2 + eps) * gonz.Radius
			if seqRes.Radius > bound*(1+1e-12) {
				t.Errorf("seed=%d eps=%v: coreset radius %v exceeds (2+eps)*Gonzalez = %v",
					seed, eps, seqRes.Radius, bound)
			}
			if parRes.Radius != seqRes.Radius {
				t.Errorf("seed=%d eps=%v: parallel radius %v != sequential %v",
					seed, eps, parRes.Radius, seqRes.Radius)
			}
			if parCalls != seqCalls {
				t.Errorf("seed=%d eps=%v: distance budget regressed under parallelism: %d calls vs %d",
					seed, eps, parCalls, seqCalls)
			}
			// Sanity cap on the budget itself: the 2-round algorithm must stay
			// within a small multiple of |S| * |T| work (|T| = coreset union)
			// plus the final assignment/radius passes.
			unionSize := int64(seqRes.Stats.CoresetUnionSize)
			budget := int64(len(ds))*(unionSize+2*int64(k)) + int64(k)*unionSize
			if seqCalls > budget {
				t.Errorf("seed=%d eps=%v: %d distance calls exceed budget %d", seed, eps, seqCalls, budget)
			}
		}
	}
}

// assertSameCenters fails unless the two center sets are identical
// coordinate for coordinate, in order.
func assertSameCenters(t *testing.T, want, got Dataset) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("center count differs across paths: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("center %d differs across paths: %v vs %v", i, want[i], got[i])
		}
	}
}

// TestCrossPathGolden is the public-API half of the metric-space layer's
// determinism contract: for every built-in space whose surrogate is an exact
// monotone prefix of its true distance (Euclidean, Manhattan, Chebyshev),
// the native Space path and the Distance-adapter path produce bit-identical
// centers, radii and assignments, for both the MapReduce and the streaming
// algorithms and for every worker count.
func TestCrossPathGolden(t *testing.T) {
	ds := clusteredTestData(4000, 3, 6, 99)
	k, z := 5, 12
	cases := []struct {
		name    string
		native  Space
		adapter Space
	}{
		{"euclidean", EuclideanSpace, SpaceFromDistance("euclidean-adapter", Euclidean)},
		{"manhattan", ManhattanSpace, SpaceFromDistance("manhattan-adapter", Manhattan)},
		{"chebyshev", ChebyshevSpace, SpaceFromDistance("chebyshev-adapter", Chebyshev)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 8} {
				nat, err := Cluster(ds, k, WithSpace(tc.native), WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				ada, err := Cluster(ds, k, WithSpace(tc.adapter), WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				if nat.Radius != ada.Radius {
					t.Fatalf("w=%d: Cluster radius native %v != adapter %v", w, nat.Radius, ada.Radius)
				}
				assertSameCenters(t, nat.Centers, ada.Centers)
				for i := range nat.Assignment {
					if nat.Assignment[i] != ada.Assignment[i] {
						t.Fatalf("w=%d: assignment[%d] differs across paths", w, i)
					}
				}

				natO, err := ClusterWithOutliers(ds, k, z, WithSpace(tc.native), WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				adaO, err := ClusterWithOutliers(ds, k, z, WithSpace(tc.adapter), WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				if natO.Radius != adaO.Radius {
					t.Fatalf("w=%d: outlier radius native %v != adapter %v", w, natO.Radius, adaO.Radius)
				}
				assertSameCenters(t, natO.Centers, adaO.Centers)

				natS, err := NewStreamingKCenter(k, 8*k, WithSpace(tc.native), WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				adaS, err := NewStreamingKCenter(k, 8*k, WithSpace(tc.adapter), WithWorkers(w))
				if err != nil {
					t.Fatal(err)
				}
				if err := natS.ObserveAll(ds); err != nil {
					t.Fatal(err)
				}
				if err := adaS.ObserveAll(ds); err != nil {
					t.Fatal(err)
				}
				natC, err := natS.Centers()
				if err != nil {
					t.Fatal(err)
				}
				adaC, err := adaS.Centers()
				if err != nil {
					t.Fatal(err)
				}
				assertSameCenters(t, natC, adaC)
			}
		})
	}
}

// TestFusedTailMatchesTwoPasses: Cluster and ClusterWithOutliers take their
// reported radius and their assignment from ONE nearest-center pass, which
// starts every point from the center of its first-round proxy. On the
// determinism fixtures both must equal what the two separate dense passes
// (Radius / RadiusExcluding, then Assign) return — that is the oracle — and a
// counting space must see the tail cost at most n*k evaluations, not 2*n*k
// (on this clustered fixture under a quarter of n*k, the hints being good):
// everything it counts beyond the greedy runs' own Stats.DistanceEvaluations,
// which is what Stats.FinalPassEvaluations reports.
func TestFusedTailMatchesTwoPasses(t *testing.T) {
	ds := clusteredTestData(10000, 4, 12, 1)
	n, k := len(ds), 10
	for _, w := range []int{1, 8} {
		cs := metric.NewCountingSpace(metric.EuclideanSpace)
		got, err := Cluster(ds, k, WithSpace(cs), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		tail := cs.Evaluations() - got.Stats.DistanceEvaluations
		if got.Stats.DistanceEvaluations <= 0 || tail > int64(n*k) || tail > int64(n*k/4) || tail != got.Stats.FinalPassEvaluations {
			t.Fatalf("Cluster workers=%d: %d evaluations outside the greedy runs (%d inside), %d reported for the final pass; want them equal and under a quarter of n*k = %d",
				w, tail, got.Stats.DistanceEvaluations, got.Stats.FinalPassEvaluations, n*k)
		}
		eng := metric.NewEngine(w)
		want := &Clustering{
			Centers:    got.Centers,
			Radius:     eng.Radius(metric.EuclideanSpace, ds, got.Centers),
			Assignment: eng.Assign(metric.EuclideanSpace, ds, got.Centers),
		}
		requireSameClustering(t, "Cluster vs two passes", want, got)
	}

	ds = clusteredTestData(9000, 3, 8, 3)
	n, k = len(ds), 6
	const z = 20
	eng := metric.NewEngine(8)
	for _, opts := range [][]Option{nil, {WithRandomizedPartitioning(99)}} {
		out, err := ClusterWithOutliers(ds, k, z, append(opts, WithWorkers(8))...)
		if err != nil {
			t.Fatal(err)
		}
		if want := eng.RadiusExcluding(metric.EuclideanSpace, ds, out.Centers, z); out.Radius != want {
			t.Fatalf("ClusterWithOutliers radius = %v, want %v", out.Radius, want)
		}
		dists, assignment := eng.NearestBatch(metric.EuclideanSpace, ds, out.Centers)
		for i := range assignment {
			if out.Assignment[i] != assignment[i] {
				t.Fatalf("ClusterWithOutliers assignment[%d] = %d, want %d", i, out.Assignment[i], assignment[i])
			}
		}
		for i, idx := range farthestIndices(dists, z) {
			if out.Outliers[i] != idx {
				t.Fatalf("ClusterWithOutliers outlier[%d] = %d, want %d", i, out.Outliers[i], idx)
			}
		}
		// Six centers for eight blobs: a hint rules out less than above.
		if out.Stats.DistanceEvaluations <= 0 || out.Stats.FinalPassEvaluations <= 0 || out.Stats.FinalPassEvaluations > int64(n*k/2) {
			t.Fatalf("ClusterWithOutliers reports %d distance evaluations and %d for the final pass, want both positive and the second under half of n*k = %d",
				out.Stats.DistanceEvaluations, out.Stats.FinalPassEvaluations, n*k)
		}
	}

	// The partitioners that scatter the input: a hint must follow its point
	// back to input order. Were the origins wrong, the results would still be
	// exact — that is the point of the pass — but the hints would be noise and
	// the tail would cost about n*k.
	targeted := make([]int, 0, n/3)
	for i := 0; i < n; i += 3 {
		targeted = append(targeted, i)
	}
	for _, part := range []mapreduce.Partitioner{
		mapreduce.RandomPartitioner{Rand: rand.New(rand.NewSource(5))},
		mapreduce.AdversarialPartitioner{Targeted: targeted},
	} {
		kc, err := core.KCenter(ds, core.KCenterConfig{K: k, Ell: 5, CoresetSize: 4 * k, Partitioner: part})
		if err != nil {
			t.Fatal(err)
		}
		if want := eng.Radius(metric.EuclideanSpace, ds, kc.Centers); kc.Radius != want {
			t.Fatalf("%T KCenter radius = %v, want %v", part, kc.Radius, want)
		}
		for i, want := range eng.Assign(metric.EuclideanSpace, ds, kc.Centers) {
			if kc.Assignment[i] != want {
				t.Fatalf("%T KCenter assignment[%d] = %d, want %d", part, i, kc.Assignment[i], want)
			}
		}
		ko, err := core.KCenterOutliers(ds, core.OutliersConfig{K: k, Z: z, Ell: 5, CoresetSize: 4 * (k + z), EpsHat: 0.25, Partitioner: part})
		if err != nil {
			t.Fatal(err)
		}
		if want := eng.RadiusExcluding(metric.EuclideanSpace, ds, ko.Centers, z); ko.Radius != want {
			t.Fatalf("%T KCenterOutliers radius = %v, want %v", part, ko.Radius, want)
		}
		wantD, wantI := eng.NearestBatch(metric.EuclideanSpace, ds, ko.Centers)
		for i := range wantI {
			if ko.Assignment[i] != wantI[i] || ko.Distances[i] != wantD[i] {
				t.Fatalf("%T KCenterOutliers point %d = (%v, %d), want (%v, %d)", part, i, ko.Distances[i], ko.Assignment[i], wantD[i], wantI[i])
			}
		}
		if kc.FinalPassEvaluations > int64(n*k/2) || ko.FinalPassEvaluations > int64(n*k/2) {
			t.Fatalf("%T: final passes cost %d and %d evaluations of n*k = %d: the hints did not follow their points", part, kc.FinalPassEvaluations, ko.FinalPassEvaluations, n*k)
		}
	}
}
