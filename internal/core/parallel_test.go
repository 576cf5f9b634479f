package core

import (
	"math/rand"
	"testing"

	"coresetclustering/internal/metric"
)

func parallelTestDataset(n, dim int, seed int64) metric.Dataset {
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

func sameCenters(t *testing.T, label string, want, got metric.Dataset) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d centers, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: center %d differs: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// TestKCenterDeterminismAcrossWorkers: the 2-round MapReduce k-center
// algorithm must return bit-identical centers and radius for Workers 1 and 8
// (with Parallelism pinned so the partition schedule is the only variable).
func TestKCenterDeterminismAcrossWorkers(t *testing.T) {
	ds := parallelTestDataset(10000, 3, 42)
	base := KCenterConfig{K: 10, Ell: 4, CoresetSize: 40}
	seqCfg, parCfg := base, base
	seqCfg.Workers = 1
	parCfg.Workers = 8
	want, err := KCenter(ds, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := KCenter(ds, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	sameCenters(t, "KCenter", want.Centers, got.Centers)
	if got.Radius != want.Radius {
		t.Fatalf("KCenter radius = %v, want %v", got.Radius, want.Radius)
	}

}

// TestKCenterOutliersDeterminismAcrossWorkers: same contract for the outlier
// algorithm, whose second round exercises the parallel covering loop and the
// parallel pairwise matrix.
func TestKCenterOutliersDeterminismAcrossWorkers(t *testing.T) {
	ds := parallelTestDataset(9000, 3, 7)
	base := OutliersConfig{K: 6, Z: 15, Ell: 4, CoresetSize: 2 * (6 + 15), EpsHat: 0.25}
	seqCfg, parCfg := base, base
	seqCfg.Workers = 1
	parCfg.Workers = 8
	want, err := KCenterOutliers(ds, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := KCenterOutliers(ds, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	sameCenters(t, "KCenterOutliers", want.Centers, got.Centers)
	if got.Radius != want.Radius {
		t.Fatalf("radius = %v, want %v", got.Radius, want.Radius)
	}
	if got.SearchRadius != want.SearchRadius {
		t.Fatalf("search radius = %v, want %v", got.SearchRadius, want.SearchRadius)
	}
	if got.UncoveredWeight != want.UncoveredWeight {
		t.Fatalf("uncovered weight = %d, want %d", got.UncoveredWeight, want.UncoveredWeight)
	}
}

// TestKCenterRaceSmoke is a bounded-size run with auto workers, meant for
// `go test -race`: it exercises partition-level and distance-level
// parallelism nested inside each other.
func TestKCenterRaceSmoke(t *testing.T) {
	ds := parallelTestDataset(9000, 2, 3)
	if _, err := KCenter(ds, KCenterConfig{K: 8, Ell: 4, CoresetSize: 32, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := KCenterOutliers(ds, OutliersConfig{K: 5, Z: 10, Ell: 4, CoresetSize: 30, EpsHat: 0.25, Workers: 4}); err != nil {
		t.Fatal(err)
	}
}
