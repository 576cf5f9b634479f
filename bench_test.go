package kcenter

// Benchmark harness: one benchmark per figure of the paper's evaluation
// section (Figures 2-8), plus micro-benchmarks of the substrates and ablation
// benchmarks for the design choices called out in DESIGN.md.
//
// The per-figure benchmarks run a reduced single-dataset configuration so the
// whole suite completes in minutes; the full sweeps (all datasets, larger
// sizes, more repetitions) are produced by `go run ./cmd/experiments`.

import (
	"fmt"
	"math/rand"
	"testing"

	"coresetclustering/internal/core"
	"coresetclustering/internal/coreset"
	"coresetclustering/internal/dataset"
	"coresetclustering/internal/experiments"
	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/outliers"
	"coresetclustering/internal/streaming"
)

func benchDatasets() []dataset.Name { return []dataset.Name{dataset.Higgs} }

// BenchmarkFigure2MapReduceKCenter reproduces Figure 2: MapReduce k-center
// approximation ratio versus coreset multiplier and parallelism.
func BenchmarkFigure2MapReduceKCenter(b *testing.B) {
	cfg := experiments.Figure2Config{
		Datasets: benchDatasets(),
		N:        4000,
		K:        20,
		Ells:     []int{2, 4, 8, 16},
		Mus:      []int{1, 2, 4, 8},
		Runs:     1,
		Seed:     1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3StreamingKCenter reproduces Figure 3: streaming k-center
// ratio and throughput versus space for CoresetStream and BaseStream.
func BenchmarkFigure3StreamingKCenter(b *testing.B) {
	cfg := experiments.Figure3Config{
		Datasets:    benchDatasets(),
		N:           4000,
		K:           20,
		Multipliers: []int{1, 2, 4, 8, 16},
		Runs:        1,
		Seed:        2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4MapReduceOutliers reproduces Figure 4: deterministic versus
// randomized MapReduce k-center with outliers under adversarial partitioning.
func BenchmarkFigure4MapReduceOutliers(b *testing.B) {
	cfg := experiments.Figure4Config{
		Datasets: benchDatasets(),
		N:        1500,
		K:        8,
		Z:        20,
		Ell:      8,
		Mus:      []int{1, 2, 4},
		EpsHat:   0.25,
		Runs:     1,
		Seed:     3,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5StreamingOutliers reproduces Figure 5: streaming k-center
// with outliers, CoresetOutliers versus BaseOutliers.
func BenchmarkFigure5StreamingOutliers(b *testing.B) {
	cfg := experiments.Figure5Config{
		Datasets:    benchDatasets(),
		N:           2000,
		K:           8,
		Z:           20,
		Multipliers: []int{1, 2, 4},
		EpsHat:      0.25,
		Runs:        1,
		Seed:        4,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6ScalabilitySize reproduces Figure 6: running time of the
// randomized MapReduce algorithm on inflated dataset instances.
func BenchmarkFigure6ScalabilitySize(b *testing.B) {
	cfg := experiments.Figure6Config{
		Datasets: benchDatasets(),
		BaseN:    4000,
		Factors:  []int{1, 2, 4},
		K:        8,
		Z:        20,
		Ell:      8,
		Mu:       2,
		EpsHat:   0.25,
		Runs:     1,
		Seed:     5,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7ScalabilityProcessors reproduces Figure 7: running time
// versus parallelism at a fixed coreset-union size, split into the coreset
// phase and the OutliersCluster phase.
func BenchmarkFigure7ScalabilityProcessors(b *testing.B) {
	cfg := experiments.Figure7Config{
		Datasets: benchDatasets(),
		N:        20000,
		K:        8,
		Z:        20,
		Ells:     []int{1, 2, 4, 8},
		EpsHat:   0.25,
		Runs:     1,
		Seed:     6,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8Sequential reproduces Figure 8: sequential running time and
// radius of CharikarEtAl, MalkomesEtAl (mu=1) and the coreset algorithm with
// mu = 2, 4, 8 on a dataset sample.
func BenchmarkFigure8Sequential(b *testing.B) {
	cfg := experiments.Figure8Config{
		Datasets: benchDatasets(),
		SampleN:  800,
		K:        8,
		Z:        20,
		Mus:      []int{2, 4, 8},
		EpsHat:   0.25,
		Runs:     1,
		Seed:     7,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the substrates -----------------------------------

func benchPoints(n, dim int, seed int64) metric.Dataset {
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

// BenchmarkEuclideanDistance measures the cost of one distance evaluation,
// the dominant primitive of every algorithm here.
func BenchmarkEuclideanDistance(b *testing.B) {
	for _, dim := range []int{7, 50} {
		ds := benchPoints(2, dim, 1)
		b.Run(map[int]string{7: "dim7", 50: "dim50"}[dim], func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += metric.Euclidean(ds[0], ds[1])
			}
			_ = sink
		})
	}
}

// BenchmarkGMM measures the Gonzalez greedy on 10k points.
func BenchmarkGMM(b *testing.B) {
	ds := benchPoints(10000, 7, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (gmm.Runner{}).Run(ds, 20, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGonzalezParallel compares the sequential Gonzalez greedy against
// the parallel distance engine on the acceptance-scale instance (n = 50k,
// d = 16): same work, chunked across 1, 2, 4, or all CPUs. The selected
// centers are bit-identical across the sub-benchmarks, so the ratio of the
// ns/op figures is a pure scheduling speedup.
func BenchmarkGonzalezParallel(b *testing.B) {
	ds := benchPoints(50000, 16, 11)
	const k = 50
	for _, w := range []int{1, 2, 4, 0} {
		name := map[int]string{1: "workers1", 2: "workers2", 4: "workers4", 0: "workersAuto"}[w]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			runner := gmm.Runner{Space: metric.EuclideanSpace, Workers: w}
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(ds, k, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistanceKernelsParallel measures the blocked kernels of the
// distance engine (assignment and radius over 50k x 16 against 50 centers)
// at sequential and parallel worker counts.
func BenchmarkDistanceKernelsParallel(b *testing.B) {
	ds := benchPoints(50000, 16, 12)
	centers := ds[:50]
	for _, w := range []int{1, 0} {
		name := map[int]string{1: "workers1", 0: "workersAuto"}[w]
		eng := metric.NewEngine(w)
		b.Run("assign/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.Assign(metric.EuclideanSpace, ds, centers)
			}
		})
		b.Run("radius/"+name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += eng.Radius(metric.EuclideanSpace, ds, centers)
			}
			_ = sink
		})
	}
}

// BenchmarkPublicAPIClusterParallel measures the end-to-end public API with
// the distance engine pinned sequential versus spread over all CPUs.
func BenchmarkPublicAPIClusterParallel(b *testing.B) {
	ds := Dataset(benchPoints(50000, 16, 13))
	for _, w := range []int{1, 0} {
		name := map[int]string{1: "workers1", 0: "workersAuto"}[w]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Cluster(ds, 20, WithWorkers(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoresetConstruction measures one partition's coreset build (the
// first-round work of the MapReduce algorithms).
func BenchmarkCoresetConstruction(b *testing.B) {
	ds := benchPoints(10000, 7, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := coreset.Build(metric.Euclidean, ds, coreset.Spec{Size: 200, RefCenters: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamingDoubling measures the per-point cost of the weighted
// doubling algorithm (the streaming coreset construction) at a small budget
// and at the daemon's, where the O(budget^2) merge rounds weigh most.
func BenchmarkStreamingDoubling(b *testing.B) {
	ds := benchPoints(20000, 7, 4)
	for _, tau := range []int{200, 2048} {
		b.Run(fmt.Sprintf("budget=%d", tau), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := streaming.NewDoublingIn(metric.EuclideanSpace, tau)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range ds {
					if err := d.Process(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Ablation benchmarks ----------------------------------------------------

// BenchmarkAblationStoppingRule compares the two coreset stopping rules: the
// eps-driven rule of the analysis versus the fixed-size rule used by the
// experiments.
func BenchmarkAblationStoppingRule(b *testing.B) {
	ds := benchPoints(5000, 7, 6)
	b.Run("eps-rule", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coreset.Build(metric.Euclidean, ds, coreset.Spec{Eps: 0.5, RefCenters: 20}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixed-size", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coreset.Build(metric.Euclidean, ds, coreset.Spec{Size: 80, RefCenters: 20}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRadiusSearch compares the paper's binary + geometric
// radius search against the exhaustive linear scan over candidate radii.
func BenchmarkAblationRadiusSearch(b *testing.B) {
	ds := benchPoints(400, 7, 7)
	set := metric.Unweighted(ds)
	b.Run("binary-geometric", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := outliers.SolveIn(metric.EuclideanSpace, set, 8, 10, 0.25, outliers.SearchBinaryGeometric, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := outliers.SolveIn(metric.EuclideanSpace, set, 8, 10, 0.25, outliers.SearchExhaustive, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPartitioning compares the deterministic and randomized
// first-round partitioning of the outlier algorithm on the same input (with
// the injected outliers placed adversarially for the deterministic variant,
// as in Figure 4).
func BenchmarkAblationPartitioning(b *testing.B) {
	base := benchPoints(2000, 7, 8)
	inj, err := dataset.InjectOutliers(base, 20, 9)
	if err != nil {
		b.Fatal(err)
	}
	k, z, ell := 8, 20, 8
	b.Run("deterministic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := core.KCenterOutliers(inj.Points, core.OutliersConfig{
				K: k, Z: z, Ell: ell, CoresetSize: 2 * (k + z), EpsHat: 0.25,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("randomized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, err := core.KCenterOutliers(inj.Points, core.OutliersConfig{
				K: k, Z: z, Ell: ell, CoresetSize: 2 * (k + 6*z/ell), EpsHat: 0.25,
				Randomized: true, Rand: rand.New(rand.NewSource(int64(i))),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPICluster measures the end-to-end public API on a mid-size
// input (quick regression guard for the default configuration).
func BenchmarkPublicAPICluster(b *testing.B) {
	ds := Dataset(benchPoints(20000, 7, 10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(ds, 20); err != nil {
			b.Fatal(err)
		}
	}
}
