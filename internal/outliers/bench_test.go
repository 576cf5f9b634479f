package outliers

import (
	"fmt"
	"math/rand"
	"testing"

	"coresetclustering/internal/metric"
)

// benchUnion draws a coreset-union-shaped weighted set: n-far points spread
// over k Gaussian blobs in 16 dimensions plus far isolated unit-weight points
// (the planted outliers every partition's coreset keeps). With unitShare of
// the blob points at weight 1 and the rest carrying proxy counts, it covers
// both the MapReduce union (mostly light) and a streaming coreset (mostly
// heavy).
func benchUnion(seed int64, n, k, far int, unitShare float64) metric.WeightedSet {
	const dim = 16
	rng := rand.New(rand.NewSource(seed))
	centers := make(metric.Dataset, k)
	for c := range centers {
		centers[c] = make(metric.Point, dim)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 40
		}
	}
	set := make(metric.WeightedSet, n)
	for i := range set {
		p := make(metric.Point, dim)
		w := int64(1)
		if i < n-far {
			c := centers[rng.Intn(k)]
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*4
			}
			if rng.Float64() >= unitShare {
				w = 2 + int64(rng.ExpFloat64()*100)
			}
		} else {
			for j := range p {
				p[j] = rng.NormFloat64() * 4000
			}
		}
		set[i] = metric.WeightedPoint{P: p, W: w}
	}
	return set
}

// benchShapes are the sizes the repository runs the radius search at: the
// round-2 union of the MapReduce benchmark workload, a full streaming coreset
// at the daemon's defaults, and a large union.
var benchShapes = []struct {
	name      string
	n, k      int
	z         int64
	unitShare float64
}{
	{"union416", 416, 20, 32, 0.7},
	{"stream288", 288, 20, 16, 0.1},
	{"union2048", 2048, 20, 32, 0.7},
}

// BenchmarkOutliersSolve measures one full radius search (matrix, candidate
// radii, probes, final clustering) at each of benchShapes. workers = 0 follows
// GOMAXPROCS, so -cpu 1,2 shows what the second core buys.
func BenchmarkOutliersSolve(b *testing.B) {
	for _, sh := range benchShapes {
		set := benchUnion(int64(sh.n), sh.n, sh.k, int(sh.z), sh.unitShare)
		b.Run(fmt.Sprintf("%s/k=%d/z=%d", sh.name, sh.k, sh.z), func(b *testing.B) {
			b.ReportAllocs()
			probes := 0
			for b.Loop() {
				res, err := SolveIn(metric.EuclideanSpace, set, sh.k, sh.z, 0.25, SearchBinaryGeometric, 0)
				if err != nil {
					b.Fatal(err)
				}
				probes += res.Evaluations
			}
			b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
		})
	}
}

// BenchmarkCandidateRadii measures the candidate-radii step of the same
// solves on their cached matrices: copying out the upper triangle, ordering it
// and removing duplicates. Beside BenchmarkOutliersSolve it splits a solve into
// ordering the candidates and probing them. A candidate is one pair of points.
func BenchmarkCandidateRadii(b *testing.B) {
	for _, sh := range benchShapes {
		set := benchUnion(int64(sh.n), sh.n, sh.k, int(sh.z), sh.unitShare)
		rows := newDistRows(metric.NewEngine(1), metric.EuclideanSpace, set.Points())
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				rows.candidateRadii()
			}
			pairs := sh.n * (sh.n - 1) / 2
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/candidate")
		})
	}
}

// BenchmarkOutliersCluster measures one invocation of the weighted
// OutliersCluster greedy on a coreset-sized input.
func BenchmarkOutliersCluster(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ds := make(metric.Dataset, 1000)
	for i := range ds {
		ds[i] = make(metric.Point, 7)
		for j := range ds[i] {
			ds[i][j] = rng.NormFloat64()
		}
	}
	set := metric.Unweighted(ds)
	diam := metric.Diameter(metric.Euclidean, ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster(metric.EuclideanSpace, set, 10, diam/10, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}
