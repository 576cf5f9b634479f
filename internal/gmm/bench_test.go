package gmm

import (
	"fmt"
	"math/rand"
	"testing"

	"coresetclustering/internal/metric"
)

// benchBlobs draws the repository benchmark's input shape: 40 Gaussian blobs
// (sd 2) in [0,100]^16 with power-law weights 1/(c+1).
func benchBlobs(n int, seed int64) metric.Dataset {
	const dim, blobs = 16, 40
	rng := rand.New(rand.NewSource(seed))
	centres := make(metric.Dataset, blobs)
	cum := make([]float64, blobs)
	total := 0.0
	for c := range centres {
		centres[c] = make(metric.Point, dim)
		for j := range centres[c] {
			centres[c][j] = 100 * rng.Float64()
		}
		total += 1 / float64(c+1)
		cum[c] = total
	}
	ds := make(metric.Dataset, n)
	for i := range ds {
		u, c := rng.Float64()*total, 0
		for cum[c] < u {
			c++
		}
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = centres[c][j] + 2*rng.NormFloat64()
		}
		ds[i] = p
	}
	return ds
}

// BenchmarkGMM times Runner.RunToSize against the textbook loop of
// reference_test.go in the same binary, at the three shapes the repository
// runs GMM at — a round-1 partition grown to a coreset, the round-2 union, a
// streaming/window extraction — on blobs (structure to prune) and on uniform
// points (none: the probe must keep the run dense, at dense speed). Both
// sides run sequentially so the ratio is about work, not scheduling. The CI
// gate reads the impl/ref pairs.
func BenchmarkGMM(b *testing.B) {
	shapes := []struct {
		n, size int
		label   string
	}{{2500, 800, "tau"}, {19200, 100, "k"}, {320, 20, "k"}}
	for _, data := range []string{"blobs", "uniform"} {
		for _, sh := range shapes {
			points := uniformFixture(sh.n, 16, int64(sh.n))
			if data == "blobs" {
				points = benchBlobs(sh.n, int64(sh.n))
			}
			name := fmt.Sprintf("%s/n=%d,%s=%d", data, sh.n, sh.label, sh.size)
			b.Run(name+"/impl", func(b *testing.B) {
				r := Runner{Space: metric.EuclideanSpace, Workers: 1}
				var evals int64
				for b.Loop() {
					res, err := r.RunToSize(points, sh.size, sh.size, 0)
					if err != nil {
						b.Fatal(err)
					}
					evals = res.Evaluations
				}
				b.ReportMetric(float64(evals), "evals/op")
			})
			b.Run(name+"/ref", func(b *testing.B) {
				for b.Loop() {
					referenceToSize(metric.EuclideanSpace, points, sh.size, sh.size, 0)
				}
				b.ReportMetric(float64(sh.n*sh.size), "evals/op")
			})
		}
	}
}
