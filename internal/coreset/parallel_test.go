package coreset

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

// TestBuildDeterminismAcrossWorkers is the coreset determinism golden: both
// stopping rules must yield bit-identical coresets (points, weights, proxy
// assignment, radii) at Workers 1 and 8, on sizes straddling the engine's
// sequential cutoff.
func TestBuildDeterminismAcrossWorkers(t *testing.T) {
	for _, n := range []int{500, 9000} {
		ds := parallelTestDataset(n, 3, int64(n))
		for _, spec := range []Spec{
			{Size: 60, RefCenters: 15},
			{Eps: 0.5, RefCenters: 15},
		} {
			seqSpec, parSpec := spec, spec
			seqSpec.Workers = 1
			parSpec.Workers = 8
			want, err := Build(metric.Euclidean, ds, seqSpec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(metric.Euclidean, ds, parSpec)
			if err != nil {
				t.Fatal(err)
			}
			if got.ProxyRadius != want.ProxyRadius || got.RadiusAtRef != want.RadiusAtRef {
				t.Fatalf("n=%d spec=%+v: radii (%v,%v), want (%v,%v)",
					n, spec, got.ProxyRadius, got.RadiusAtRef, want.ProxyRadius, want.RadiusAtRef)
			}
			if len(got.Points) != len(want.Points) {
				t.Fatalf("n=%d spec=%+v: %d coreset points, want %d", n, spec, len(got.Points), len(want.Points))
			}
			for i := range want.Points {
				if !got.Points[i].Equal(want.Points[i]) {
					t.Fatalf("n=%d spec=%+v: coreset point %d differs", n, spec, i)
				}
				if got.Weights[i] != want.Weights[i] {
					t.Fatalf("n=%d spec=%+v: weight[%d] = %d, want %d", n, spec, i, got.Weights[i], want.Weights[i])
				}
			}
			for i := range want.Assignment {
				if got.Assignment[i] != want.Assignment[i] {
					t.Fatalf("n=%d spec=%+v: assignment[%d] = %d, want %d", n, spec, i, got.Assignment[i], want.Assignment[i])
				}
			}
		}
	}
}
