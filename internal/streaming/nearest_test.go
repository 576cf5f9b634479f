package streaming

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"coresetclustering/internal/metric"
)

// driftingStream has the shape of the benchmark's inputs: blobs of standard
// deviation 2 with centres uniform in [0, 100]^dim and power-law weights
// 1/(c+1), every centre moving drift per point along its own fixed random
// direction. Without the drift the coreset collapses to about one center per
// blob after a few merges; with it the coreset stays near its budget.
func driftingStream(seed int64, n, dim, blobs int, drift float64) metric.Dataset {
	rng := rand.New(rand.NewSource(seed))
	centres, dirs := make([]metric.Point, blobs), make([]metric.Point, blobs)
	cum := make([]float64, blobs)
	total := 0.0
	for c := range centres {
		centres[c], dirs[c] = make(metric.Point, dim), make(metric.Point, dim)
		norm := 0.0
		for j := range centres[c] {
			centres[c][j] = 100 * rng.Float64()
			dirs[c][j] = rng.NormFloat64()
			norm += dirs[c][j] * dirs[c][j]
		}
		for j := range dirs[c] {
			dirs[c][j] /= math.Sqrt(norm)
		}
		total += 1 / float64(c+1)
		cum[c] = total
	}
	ds := make(metric.Dataset, n)
	for i := range ds {
		u := rng.Float64() * total
		c := 0
		for cum[c] < u {
			c++
		}
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = centres[c][j] + float64(i)*drift*dirs[c][j] + 2*rng.NormFloat64()
		}
		ds[i] = p
	}
	return ds
}

// observeCases are the two budgets the daemon benchmarks run Doubling at,
// each with the benchmark's drift for it. evals pins what the processor
// spends on the stream (CountingSpace evaluations, merge rule included) and
// centers where it ends; the plain scan spends 16 024 977 and 99 045 369
// evaluations on the same streams, to the same final states.
var observeCases = []struct {
	tau, n  int
	drift   float64
	evals   int64
	centers int
}{
	{tau: 320, n: 100_000, drift: 5e-4, evals: 4_946_824, centers: 214},
	{tau: 2048, n: 100_000, drift: 4e-3, evals: 14_460_901, centers: 1066},
}

// TestDoublingEvaluationCounts pins the exact number of point-pair
// evaluations the doubling processor spends on two seeded drifting streams,
// and checks the state it ends in against the scanning oracle: the
// nearest-center index changes the first and must leave the second alone.
func TestDoublingEvaluationCounts(t *testing.T) {
	for _, tc := range observeCases {
		t.Run(fmt.Sprintf("tau=%d", tc.tau), func(t *testing.T) {
			cs := metric.NewCountingSpace(metric.EuclideanSpace)
			d, err := NewDoublingIn(cs, tc.tau)
			if err != nil {
				t.Fatal(err)
			}
			r := &refDoubling{space: metric.EuclideanSpace, tau: tc.tau}
			for _, p := range driftingStream(int64(tc.tau), tc.n, 16, 40, tc.drift) {
				if err := d.Process(p); err != nil {
					t.Fatal(err)
				}
				r.process(p)
			}
			assertMatchesReference(t, "end of stream", d, r)
			if got := cs.Evaluations(); got != tc.evals || len(d.centers) != tc.centers {
				t.Errorf("%d evaluations to %d centers, pinned %d to %d (index transitions %+v)", got, len(d.centers), tc.evals, tc.centers, d.nearStats)
			}
			if d.nearStats.builds == 0 {
				t.Error("the index was never built")
			}
		})
	}
}

// BenchmarkDoublingObserve times the doubling processor on a drifting
// stream at the daemon's two budgets, from the first point, and reports the
// time and the point-pair evaluations per processed point.
func BenchmarkDoublingObserve(b *testing.B) {
	for _, tc := range observeCases {
		b.Run(fmt.Sprintf("tau=%d", tc.tau), func(b *testing.B) {
			ds := driftingStream(int64(tc.tau), tc.n, 16, 40, tc.drift)
			cs := metric.NewCountingSpace(metric.EuclideanSpace)
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				d, err := NewDoublingIn(metric.EuclideanSpace, tc.tau)
				if err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				for _, p := range ds {
					if err := d.Process(p); err != nil {
						b.Fatal(err)
					}
				}
				elapsed += time.Since(t0)
			}
			// The counts come from one extra, untimed run: the counting
			// wrapper's atomic adds would distort the timing.
			d, _ := NewDoublingIn(cs, tc.tau)
			for _, p := range ds {
				_ = d.Process(p)
			}
			points := float64(b.N) * float64(len(ds))
			b.ReportMetric(float64(elapsed.Nanoseconds())/points, "ns/point")
			b.ReportMetric(float64(cs.Evaluations())/float64(len(ds)), "evals/point")
		})
	}
}

// FuzzNearestIndex builds the index over byte-derived centers — small
// integer coordinates, so duplicates and exact ties abound — on one of the
// spaces that chain, then queries it with the remaining points, each of which
// is indexed as a new center afterwards (growing groups and reaches). Every
// answer must be ArgNearest's over the centers so far, surrogate and index.
func FuzzNearestIndex(f *testing.F) {
	f.Add([]byte{0, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 3, 40, 200, 0, 0, 0, 1, 1, 1, 255, 128})
	f.Add([]byte{2, 1, 7, 7, 7, 7, 7, 7, 7, 8})
	f.Add([]byte{0, 4, 90, 1, 2, 4, 8, 16, 32, 64, 128, 3, 5, 9, 17, 33, 65, 129})
	spaces := []metric.Space{metric.EuclideanSpace, metric.ManhattanSpace, metric.ChebyshevSpace}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		sp := spaces[int(data[0])%len(spaces)]
		dim := 1 + int(data[1])%6
		n := minIndexed + int(data[2])
		coords := data[3:]
		pts := make(metric.Dataset, n)
		for i := range pts {
			p := make(metric.Point, dim)
			for j := range p {
				// Cycling the bytes repeats points; the index term spreads
				// the cycles so that not every center is a duplicate.
				b := coords[(i*dim+j)%len(coords)]
				p[j] = float64(int8(b)%16) + float64(i/len(coords)%3)
			}
			pts[i] = p
		}
		k := minIndexed + (n-minIndexed)/2
		x := buildNearIndex(sp, pts[:k])
		if x == nil {
			t.Fatalf("no index over %d centers on %s", k, sp.Name())
		}
		for ; k < n; k++ {
			p := pts[k]
			s, c, _ := x.nearest(sp, p, k)
			ws, wc := sp.ArgNearest(p, pts[:k])
			if math.Float64bits(s) != math.Float64bits(ws) || c != wc {
				t.Fatalf("%s: query %v over %d centers: index (%v, %d), ArgNearest (%v, %d)", sp.Name(), p, k, s, c, ws, wc)
			}
			x.add(p, k)
		}
	})
}
