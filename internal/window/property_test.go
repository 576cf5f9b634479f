package window_test

// The windowed streams are clusterer.Clusterer — one layer up — over this
// package's Window; their quality, round-trip and worker-invariance tests stay
// beside the window they exercise, in the external test package because
// internal/clusterer imports this one.

import (
	"bytes"
	"math/rand"
	"testing"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/outliers"
	"coresetclustering/internal/sketch"
	"coresetclustering/internal/window"
)

// TestWindowedQualityProperty is the windowed analogue of the sketch merge
// quality property: for randomized ingest/evict schedules, the k centers
// extracted from the merged live buckets must stay within (2+eps) of a
// from-scratch Gonzalez recompute over exactly the live window (the point
// set LiveRange delimits). eps = 1 absorbs the bucketing and budget slack,
// matching the existing merge-quality tests.
func TestWindowedQualityProperty(t *testing.T) {
	const (
		k   = 6
		dim = 3
		n   = 3000
	)
	for _, seed := range []int64{11, 12, 13} {
		rng := rand.New(rand.NewSource(seed))
		W := int64(200 + rng.Intn(600))
		tau := (8 + rng.Intn(9)) * k
		data := window.ClusteredData(rng, n, dim, k, 1)

		s, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: k, Tau: tau, WindowSize: W})
		if err != nil {
			t.Fatal(err)
		}
		ts := int64(0)
		for i, p := range data {
			// Randomized schedule: bursts share a timestamp, lulls advance it.
			if rng.Intn(4) == 0 {
				ts += int64(rng.Intn(3))
			}
			if err := s.Observe(p, ts); err != nil {
				t.Fatal(err)
			}
			if i > int(W) && (i%701 == 0 || i == len(data)-1) {
				assertWindowQuality(t, s.Window(), data, s.Centers, k, seed, i)
			}
		}
	}
}

func assertWindowQuality(t *testing.T, w *window.Window, data metric.Dataset, result func() (metric.Dataset, error), k int, seed int64, step int) {
	t.Helper()
	if err := w.CheckInvariants(); err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
	start, end := w.LiveRange()
	live := data[start:end]
	centers, err := result()
	if err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
	radius := metric.Radius(metric.Euclidean, live, centers)
	base, err := gmm.Runner{Space: metric.EuclideanSpace}.Run(live, k, 0)
	if err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
	if bound := (2 + 1.0) * base.Radius; radius > bound {
		t.Errorf("seed %d step %d: windowed radius %v over the live window exceeds (2+eps) bound %v (Gonzalez %v, live %d points)",
			seed, step, radius, bound, base.Radius, len(live))
	}
}

// TestWindowedOutliersQualityProperty is the outlier variant: the windowed
// outlier-aware radius over exactly the live window must stay within a small
// constant of a from-scratch outlier solve on those points, it must never
// leave more than z coreset weight uncovered, and the plain (2+eps)*Gonzalez
// bound must hold against a Gonzalez baseline that also spends z extra
// centers (the outlier analogue of the from-scratch recompute).
func TestWindowedOutliersQualityProperty(t *testing.T) {
	const (
		k   = 4
		z   = 10
		dim = 3
		n   = 2500
	)
	for _, seed := range []int64{21, 22} {
		rng := rand.New(rand.NewSource(seed))
		W := int64(300 + rng.Intn(400))
		tau := (8 + rng.Intn(5)) * (k + z)
		data := window.ClusteredData(rng, n, dim, k, 1)
		// Sprinkle far-away junk: roughly z outliers per window span.
		for i := range data {
			if rng.Intn(int(W)/z) == 0 {
				p := make(metric.Point, dim)
				for j := range p {
					p[j] = 5_000 + rng.Float64()*1_000
				}
				data[i] = p
			}
		}

		s, err := clusterer.New(clusterer.Params{Kind: sketch.KindOutliers, K: k, Z: z, Tau: tau, EpsHat: 0.25, WindowSize: W})
		if err != nil {
			t.Fatal(err)
		}
		ts := int64(0)
		for i, p := range data {
			if rng.Intn(4) == 0 {
				ts += int64(rng.Intn(3))
			}
			if err := s.Observe(p, ts); err != nil {
				t.Fatal(err)
			}
			if i > int(W) && (i%701 == 0 || i == len(data)-1) {
				assertOutlierWindowQuality(t, s, data, k, z, seed, i)
			}
		}
	}
}

func assertOutlierWindowQuality(t *testing.T, s *clusterer.Clusterer, data metric.Dataset, k, z int, seed int64, step int) {
	t.Helper()
	w := s.Window()
	if err := w.CheckInvariants(); err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
	start, end := w.LiveRange()
	live := data[start:end]
	res, err := s.Result()
	if err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
	if len(res.Centers) > k {
		t.Fatalf("seed %d step %d: %d centers, want <= %d", seed, step, len(res.Centers), k)
	}
	if res.UncoveredWeight > int64(z) {
		t.Errorf("seed %d step %d: uncovered weight %d exceeds z=%d", seed, step, res.UncoveredWeight, z)
	}
	radius := metric.RadiusExcluding(metric.Euclidean, live, res.Centers, z)

	// From-scratch recompute over exactly the live window with the same
	// weighted solver.
	scratch, err := outliers.SolveIn(metric.EuclideanSpace, metric.Unweighted(live), k, int64(z), 0.25, outliers.SearchBinaryGeometric, 0)
	if err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
	scratchRadius := metric.RadiusExcluding(metric.Euclidean, live, scratch.Centers, z)
	if bound := 3 * scratchRadius; scratchRadius > 0 && radius > bound {
		t.Errorf("seed %d step %d: windowed outlier radius %v exceeds 3x from-scratch %v (live %d points)",
			seed, step, radius, scratchRadius, len(live))
	}

	// The (2+eps)*Gonzalez bound, against a baseline that also gets to place
	// k+z centers (covering the junk with dedicated centers).
	base, err := gmm.Runner{Space: metric.EuclideanSpace}.Run(live, k+z, 0)
	if err != nil {
		t.Fatalf("seed %d step %d: %v", seed, step, err)
	}
	if bound := (2 + 1.0) * base.Radius; base.Radius > 0 && radius > bound {
		t.Errorf("seed %d step %d: windowed outlier radius %v exceeds (2+eps)*Gonzalez(k+z) = %v",
			seed, step, radius, bound)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	const W = 256
	rng := rand.New(rand.NewSource(6))
	data := window.ClusteredData(rng, 1500, 3, 4, 1)
	orig, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: 5, Tau: 40, WindowSize: W})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range data[:1000] {
		if err := orig.Observe(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := clusterer.Restore(mustEncode(t, orig), 0)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical across the round-trip: same centers now...
	c1, err := orig.Centers()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := restored.Centers()
	if err != nil {
		t.Fatal(err)
	}
	window.AssertSameDataset(t, c1, c2, "restored centers")

	// ...and identical evolution: feeding both the same suffix keeps the
	// snapshots byte-identical.
	for i, p := range data[1000:] {
		ts := int64(1000 + i)
		if err := orig.Observe(p, ts); err != nil {
			t.Fatal(err)
		}
		if err := restored.Observe(p, ts); err != nil {
			t.Fatal(err)
		}
	}
	b1 := mustEncode(t, orig)
	b2 := mustEncode(t, restored)
	if !bytes.Equal(b1, b2) {
		t.Error("snapshots diverged after identical suffixes")
	}
	if err := restored.Window().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func mustEncode(t *testing.T, s *clusterer.Clusterer) []byte {
	t.Helper()
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkerInvariance: windowed extraction is bit-identical for every worker
// count, for both stream flavours.
func TestWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := window.ClusteredData(rng, 1200, 4, 5, 1)

	build := func(workers int) (metric.Dataset, metric.Dataset) {
		plain, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: 6, Tau: 48, Workers: workers, WindowSize: 300})
		if err != nil {
			t.Fatal(err)
		}
		outl, err := clusterer.New(clusterer.Params{Kind: sketch.KindOutliers, K: 4, Z: 6, Tau: 80, EpsHat: 0.25, Workers: workers, WindowSize: 300})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range data {
			if err := plain.Observe(p, int64(i)); err != nil {
				t.Fatal(err)
			}
			if err := outl.Observe(p, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		pc, err := plain.Centers()
		if err != nil {
			t.Fatal(err)
		}
		oc, err := outl.Centers()
		if err != nil {
			t.Fatal(err)
		}
		return pc, oc
	}

	p1, o1 := build(1)
	for _, workers := range []int{2, 8} {
		p, o := build(workers)
		window.AssertSameDataset(t, p1, p, "plain centers across workers")
		window.AssertSameDataset(t, o1, o, "outlier centers across workers")
	}
}

func TestStreamConstructorValidation(t *testing.T) {
	if _, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: 0, Tau: 8, WindowSize: 10}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: 4, Tau: 3, WindowSize: 10}); err == nil {
		t.Error("tau<k accepted")
	}
	if _, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: 4, Tau: 8, WindowSize: -1}); err == nil {
		t.Error("negative window bound accepted")
	}
	if _, err := clusterer.New(clusterer.Params{Kind: sketch.KindOutliers, K: 2, Z: 3, Tau: 4, EpsHat: 0.25, WindowSize: 10}); err == nil {
		t.Error("tau<k+z accepted")
	}
	if _, err := clusterer.New(clusterer.Params{Kind: sketch.KindOutliers, K: 2, Z: -1, Tau: 8, EpsHat: 0.25, WindowSize: 10}); err == nil {
		t.Error("z<0 accepted")
	}
	if _, err := clusterer.New(clusterer.Params{Kind: sketch.KindOutliers, K: 2, Z: 1, Tau: 8, EpsHat: -1, WindowSize: 10}); err == nil {
		t.Error("negative epsHat accepted")
	}
	if _, err := clusterer.Restore([]byte("KCWN"), 0); err == nil {
		t.Error("truncated window sketch restored")
	}
}
