package gmm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"coresetclustering/internal/benchgate"
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

type gmmShape struct {
	n, size int
	label   string
}

// forEachGMMRow calls f for every row of TestGMMEvaluationCounts and
// BenchmarkGateGMM: the three shapes the repository runs GMM at (a round-1
// partition grown to a coreset, the round-2 union, a streaming/window
// extraction) on blobs (structure to prune) and on uniform points (none).
func forEachGMMRow(f func(name string, sh gmmShape, points metric.Dataset)) {
	for _, data := range []string{"blobs", "uniform"} {
		for _, sh := range []gmmShape{{2500, 800, "tau"}, {19200, 100, "k"}, {320, 20, "k"}} {
			points := uniformFixture(sh.n, 16, int64(sh.n))
			if data == "blobs" {
				points = benchBlobs(sh.n, int64(sh.n))
			}
			f(fmt.Sprintf("%s/n=%d,%s=%d", data, sh.n, sh.label, sh.size), sh, points)
		}
	}
}

// TestGMMEvaluationCounts pins the work claim on exact counts: the
// evaluations RunToSize spends at every row, for one worker and for four. The
// textbook loop spends n*size; on uniform points the pruned path may exceed
// that only by its probes' cost. A count that rises is a regression whatever
// the timings say.
func TestGMMEvaluationCounts(t *testing.T) {
	want := map[string]int64{
		"blobs/n=2500,tau=800": 232395, "blobs/n=19200,k=100": 699902, "blobs/n=320,k=20": 6400,
		"uniform/n=2500,tau=800": 2001575, "uniform/n=19200,k=100": 1920152, "uniform/n=320,k=20": 6400,
	}
	forEachGMMRow(func(name string, sh gmmShape, points metric.Dataset) {
		for _, workers := range []int{1, 4} {
			res, err := Runner{Space: metric.EuclideanSpace, Workers: workers}.RunToSize(points, sh.size, sh.size, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Evaluations != want[name] {
				t.Errorf("%s, %d workers: %d evaluations, want %d", name, workers, res.Evaluations, want[name])
			}
		}
	})
}

// BenchmarkGateGMM is the exact-pruning gate (protocol in internal/benchgate):
// on blobs at the round-1 shape the pruned phase must pay, at least 2.5x the
// textbook loop; on uniform points and at the extraction shape there is
// nothing to prune or too few rounds to win it back, and the probe must keep
// the run dense at dense speed, at most 1.05x slower. The round-2 union on
// blobs has no bound. Both sides run one worker on one P (GOMAXPROCS 1 for
// the gate's duration), so the garbage collector cannot borrow an idle CPU
// for either side and the ratio is about work, not scheduling.
func BenchmarkGateGMM(b *testing.B) {
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	forEachGMMRow(func(name string, sh gmmShape, points metric.Dataset) {
		if name == "blobs/n=19200,k=100" {
			return
		}
		b.Run(name, func(b *testing.B) {
			r := Runner{Space: metric.EuclideanSpace, Workers: 1}
			impl := func() {
				if _, err := r.RunToSize(points, sh.size, sh.size, 0); err != nil {
					b.Fatal(err)
				}
			}
			ref := func() { referenceToSize(metric.EuclideanSpace, points, sh.size, sh.size, 0) }
			if name == "blobs/n=2500,tau=800" {
				benchgate.MedianRatio(b, "ref/impl", 2.5, math.Inf(1), ref, impl)
			} else {
				benchgate.MedianRatio(b, "impl/ref", 0, 1.05, impl, ref)
			}
		})
	})
}
