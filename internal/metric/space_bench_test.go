package metric

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel benchmarks of the native Euclidean space: Assign and Radius over
// n = 50k points in d = 16, and the GMM cache update in isolation. k = 64
// centers is a representative center count for the paper's workloads (its
// experiments run k up to the hundreds) and large enough that the per-row
// kernel dominates the per-point overheads.
const (
	benchAssignN   = 50000
	benchAssignDim = 16
	benchAssignK   = 64
)

// benchDataset builds the point set in per-point allocations.
func benchDataset(n, dim int) (Dataset, Dataset) {
	rng := rand.New(rand.NewSource(777))
	ds := make(Dataset, n)
	for i := range ds {
		ds[i] = randPoint(rng, dim)
	}
	return ds, ds[:benchAssignK]
}

// benchFlatDataset is the same point set in contiguous flat storage, the
// layout the native path is co-designed with.
func benchFlatDataset(b *testing.B, n, dim int) (Dataset, Dataset) {
	ds, _ := benchDataset(n, dim)
	f, err := FlatFromDataset(ds)
	if err != nil {
		b.Fatal(err)
	}
	flat := f.Dataset()
	return flat, flat[:benchAssignK]
}

func benchAssign(b *testing.B, sp Space, points, centers Dataset, workers int) {
	e := NewEngine(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Assign(sp, points, centers)
	}
}

// BenchmarkAssignSpace is the native path: flat contiguous storage and
// batched squared-Euclidean kernels — no sqrt, no per-pair function call, no
// pointer-chasing between points.
func BenchmarkAssignSpace(b *testing.B) {
	points, centers := benchFlatDataset(b, benchAssignN, benchAssignDim)
	benchAssign(b, EuclideanSpace, points, centers, 1)
}

// BenchmarkAssignSpaceParallel is its auto-parallel counterpart.
func BenchmarkAssignSpaceParallel(b *testing.B) {
	points, centers := benchFlatDataset(b, benchAssignN, benchAssignDim)
	benchAssign(b, EuclideanSpace, points, centers, 0)
}

func benchRadius(b *testing.B, sp Space) {
	points, centers := benchDataset(benchAssignN, benchAssignDim)
	e := NewEngine(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Radius(sp, points, centers)
	}
}

func BenchmarkRadiusSpace(b *testing.B) { benchRadius(b, EuclideanSpace) }

func BenchmarkRadiusDistance(b *testing.B) {
	benchRadius(b, SpaceFromDistance("euclidean-adapter", Euclidean))
}

// BenchmarkUpdateNearestSpace measures the GMM cache-update kernel in
// isolation (one center against the full point set). Its 50k per-point rows
// (6.4 MB) do not fit in cache and the cache converges after the first
// passes, so it times memory traffic more than the kernel;
// BenchmarkEuclideanKernels is the kernel at the sizes the workloads give it.
func BenchmarkUpdateNearestSpace(b *testing.B) {
	points, _ := benchDataset(benchAssignN, benchAssignDim)
	minDist := make([]float64, len(points))
	minIdx := make([]int, len(points))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EuclideanSpace.UpdateNearest(minDist, minIdx, points[i%len(points)], 0, points)
	}
}

// BenchmarkEuclideanKernels times the native Euclidean row kernels on flat,
// cache-resident sets at the sizes the library calls them with: n = 320 (a
// streaming budget: ArgNearest per observed point), 2 500 (a round-1
// partition: one Gonzalez step) and 7 500 (the union a sliding window
// extracts from). ArgNearest scans the set for one query, DistancesTo writes
// one value per row, DistancesToIndexed reads the rows through a shuffled
// index list as the pruned GMM phase does. Each reports ns/eval.
func BenchmarkEuclideanKernels(b *testing.B) {
	for _, n := range []int{320, 2500, 7500} {
		set, _ := benchFlatDataset(b, n, benchAssignDim)
		queries := set[:64]
		idx := make([]int32, n)
		for i, j := range rand.New(rand.NewSource(3)).Perm(n) {
			idx[i] = int32(j)
		}
		dst := make([]float64, n)
		kernels := []struct {
			name string
			run  func(q Point)
		}{
			{"ArgNearest", func(q Point) { EuclideanSpace.ArgNearest(q, set) }},
			{"DistancesTo", func(q Point) { EuclideanSpace.DistancesTo(dst, q, set) }},
			{"DistancesToIndexed", func(q Point) { DistancesToIndexed(EuclideanSpace, dst, q, set, idx) }},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/n=%d", k.name, n), func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					k.run(queries[i%len(queries)])
					i++
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(i*n), "ns/eval")
			})
		}
	}
}
