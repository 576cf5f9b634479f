package window

import (
	"math"
	"math/rand"
	"testing"

	"coresetclustering/internal/metric"
)

// TestLiveBucketsCoverTheirPoints keeps every observed point beside the
// window and, after every Observe (the insert, the coalesces it triggers and
// the eviction behind them) and every Advance, checks invariant (c) bucket by
// bucket: each live point lies within 8*phi of its own bucket's nearest
// centre, and within CoverageBound(). A coalesce that understates the merged
// phi — dropping the selection-radius term or taking the smaller input phi —
// leaves a summarised point beyond its bucket's bound, and shows here.
func TestLiveBucketsCoverTheirPoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  metric.Dataset
		cfg  Config
	}{
		// Tight clusters that drift apart at different speeds, a few more of
		// them than the budget: a union of two buckets must drop whole
		// clusters, so the selection radius dwarfs the buckets' own phi.
		{"drifting clusters", driftingClusters(rand.New(rand.NewSource(1)), 3000, 6), Config{Tau: 4, Base: 2, Chi: 2, MaxCount: 300}},
		{"drifting clusters, duration window", driftingClusters(rand.New(rand.NewSource(2)), 3000, 9), Config{Tau: 6, Base: 3, Chi: 2, MaxAge: 400}},
		// Points on a line at geometrically spaced offsets, visited in a
		// shuffled order: buckets summarising different scales carry very
		// different phi, so a merge must keep the larger one.
		{"geometric spacing", geometricLine(rand.New(rand.NewSource(3)), 3000), Config{Tau: 4, Base: 1, Chi: 2, MaxCount: 500}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := mustWindow(t, tc.cfg)
			for i, p := range tc.pts {
				if err := w.Observe(p, int64(i)); err != nil {
					t.Fatal(err)
				}
				checkBucketCover(t, w, tc.pts, i)
				if i%97 == 96 {
					// A lull: the clock moves on without a point.
					if err := w.Advance(int64(i) + 1); err != nil {
						t.Fatal(err)
					}
					checkBucketCover(t, w, tc.pts, i)
				}
			}
		})
	}
}

// checkBucketCover asserts invariant (c) for every live bucket of w, whose
// points are pts[startSeq:endSeq] of each bucket (timestamps equal indices).
func checkBucketCover(t *testing.T, w *Window, pts metric.Dataset, step int) {
	t.Helper()
	bound := w.CoverageBound()
	for _, b := range w.live() {
		centres := b.proc.AppendPoints(nil)
		limit := 8 * b.proc.Phi()
		for s := b.startSeq; s < b.endSeq; s++ {
			d, _ := metric.DistanceToSet(metric.Euclidean, pts[s], centres)
			// The relative slack only absorbs rounding; both mutants this
			// guards against understate phi by far more.
			if d > limit*(1+1e-12) || d > bound*(1+1e-12) {
				t.Fatalf("after point %d: point %d of a level-%d bucket [%d, %d) lies %v from its nearest centre; 8*phi = %v, CoverageBound = %v",
					step, s, b.level, b.startSeq, b.endSeq, d, limit, bound)
			}
		}
	}
}

// driftingClusters emits n points from m tight clusters in the plane, each
// moving on its own straight line at its own speed.
func driftingClusters(rng *rand.Rand, n, m int) metric.Dataset {
	start := make([][2]float64, m)
	vel := make([][2]float64, m)
	for c := range start {
		start[c] = [2]float64{rng.Float64() * 100, rng.Float64() * 100}
		angle := rng.Float64() * 2 * math.Pi
		speed := 0.01 + 0.1*rng.Float64()
		vel[c] = [2]float64{speed * math.Cos(angle), speed * math.Sin(angle)}
	}
	out := make(metric.Dataset, n)
	for i := range out {
		c := rng.Intn(m)
		out[i] = metric.Point{
			start[c][0] + vel[c][0]*float64(i) + 0.01*rng.NormFloat64(),
			start[c][1] + vel[c][1]*float64(i) + 0.01*rng.NormFloat64(),
		}
	}
	return out
}

// geometricLine emits n points on the real line at ±1.6^e for exponents
// e in [0, 24), each exponent in a run of a few points so that consecutive
// buckets summarise different scales.
func geometricLine(rng *rand.Rand, n int) metric.Dataset {
	out := make(metric.Dataset, 0, n)
	for len(out) < n {
		e := float64(rng.Intn(24))
		run := 1 + rng.Intn(6)
		for r := 0; r < run && len(out) < n; r++ {
			x := math.Pow(1.6, e) * (1 + 0.05*rng.Float64())
			if rng.Intn(2) == 0 {
				x = -x
			}
			out = append(out, metric.Point{x})
		}
	}
	return out
}
