package kcenter

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/window"
)

// Exact metamorphic relations. Some properties need no optimum to check
// against and hold bit for bit in floating point, so any slip shows as a
// mismatch rather than as a worse ratio.
//
// Scaling every coordinate by 2^s is exact as long as every value stays
// normal: (2^s·a) − (2^s·b) rounds to 2^s·(a−b), a sum, product, quotient
// or Sqrt of scaled operands is the scaled result, and so every Euclidean,
// Manhattan and Chebyshev distance scales by exactly 2^s. Every comparison
// the algorithms make (nearest centre, farthest point, d <= 8·phi, radius
// probes) then compares the same pair of scaled numbers and goes the same
// way, every phi scales with the distances it is built from, and every
// weight is an integer count that no distance enters. Negation is exact too:
// (−a) − (−b) = −(a−b), whose absolute value and square are those of a−b,
// so every distance is unchanged.
//
// The relations below run on windows large enough that coalescing runs
// GMM reductions, so the rows a reduction copies into its own block are
// what the scaled run reads back. The centres are also checked to be
// observed points, bit for bit: a copy that slipped a stride or an offset
// would scale along with its input, but its rows would mix two points.

// metamorphicScales are the exponents s: coordinates near 100 and differences
// down to about 1e-3 stay normal and far inside the 2^500 admission bound.
var metamorphicScales = []int{-40, -2, 2, 40}

// windowRun is what one window answers after a stream: the fields every
// relation compares.
type windowRun struct {
	centers   Dataset
	coverage  float64
	buckets   []window.BucketInfo
	coreset   Dataset
	weights   []int64
	uncovered int64
	search    float64
}

func runWindow(t *testing.T, newStream func() (*clusterer.Clusterer, error), points Dataset, ts []int64) windowRun {
	t.Helper()
	c, err := newStream()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if err := c.Observe(p, ts[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Result()
	if err != nil {
		t.Fatal(err)
	}
	w := c.Window()
	cs, err := w.Coreset()
	if err != nil {
		t.Fatal(err)
	}
	run := windowRun{
		centers:   res.Centers,
		coverage:  w.CoverageBound(),
		buckets:   w.Buckets(),
		uncovered: res.UncoveredWeight,
		search:    res.SearchRadius,
	}
	for _, wp := range cs {
		run.coreset = append(run.coreset, wp.P)
		run.weights = append(run.weights, wp.W)
	}
	return run
}

// mapPoints applies f to every coordinate, one new array per point.
func mapPoints(points Dataset, f func(float64) float64) Dataset {
	out := make(Dataset, len(points))
	for i, p := range points {
		q := make(Point, len(p))
		for j, x := range p {
			q[j] = f(x)
		}
		out[i] = q
	}
	return out
}

// sameMapped reports the first pair of rows where got is not f of want.
func sameMapped(got, want Dataset, f func(float64) float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != f(want[i][j]) {
				return fmt.Errorf("row %d coordinate %d is %v, want %v", i, j, got[i][j], f(want[i][j]))
			}
		}
	}
	return nil
}

// metamorphicStream is a drifting mixture in 4 dimensions: five blobs that
// each move along their own line, so a budget-32 window keeps reducing.
func metamorphicStream(seed int64, n int) (Dataset, []int64) {
	rng := rand.New(rand.NewSource(seed))
	const dim = 4
	start, vel := make(Dataset, 5), make(Dataset, 5)
	for c := range start {
		start[c], vel[c] = make(Point, dim), make(Point, dim)
		for j := 0; j < dim; j++ {
			start[c][j] = rng.Float64() * 100
			vel[c][j] = (rng.Float64() - 0.5) * 0.05
		}
	}
	points, ts := make(Dataset, n), make([]int64, n)
	for i := range points {
		c := rng.Intn(len(start))
		p := make(Point, dim)
		for j := range p {
			p[j] = start[c][j] + vel[c][j]*float64(i) + rng.NormFloat64()
		}
		points[i], ts[i] = p, int64(i/3)
	}
	return points, ts
}

func TestMetamorphicWindows(t *testing.T) {
	const (
		k, z, budget = 5, 3, 32
		n, count     = 2400, 1000
		duration     = 300 // timestamps advance every third point
	)
	points, ts := metamorphicStream(21, n)
	observed := make(map[string]bool, n)
	for _, p := range points {
		observed[fmt.Sprint(p)] = true
	}
	windows := []struct {
		name string
		opt  Option
	}{{"count", WithWindowSize(count)}, {"duration", WithWindowDuration(duration)}}
	for _, sp := range []Space{EuclideanSpace, ManhattanSpace, ChebyshevSpace} {
		for _, outliers := range []bool{false, true} {
			for _, win := range windows {
				newStream := func() (*clusterer.Clusterer, error) {
					if outliers {
						s, err := NewWindowedOutliers(k, z, budget, WithSpace(sp), win.opt)
						if err != nil {
							return nil, err
						}
						return s.c, nil
					}
					s, err := NewWindowedKCenter(k, budget, WithSpace(sp), win.opt)
					if err != nil {
						return nil, err
					}
					return s.c, nil
				}
				t.Run(fmt.Sprintf("%s/outliers=%v/%s", sp.Name(), outliers, win.name), func(t *testing.T) {
					base := runWindow(t, newStream, points, ts)
					checkWindowReduced(t, budget, base.buckets)
					for i, p := range base.centers {
						if !observed[fmt.Sprint(p)] {
							t.Fatalf("centre %d %v is not an observed point", i, p)
						}
					}
					for _, s := range metamorphicScales {
						scale := func(x float64) float64 { return math.Ldexp(x, s) }
						// Every distance and phi scales by 2^s and every
						// comparison goes the same way (see the file comment).
						got := runWindow(t, newStream, mapPoints(points, scale), ts)
						compareRuns(t, fmt.Sprintf("scaled by 2^%d", s), got, base, scale)
					}
					// Every distance is unchanged, so every choice is.
					neg := func(x float64) float64 { return -x }
					got := runWindow(t, newStream, mapPoints(points, neg), ts)
					compareRuns(t, "negated", got, base, neg)
				})
			}
		}
	}
}

// compareRuns checks the relation between a run on mapped input and the
// base run: points map by f, distances by |f|, counts not at all.
func compareRuns(t *testing.T, what string, got, base windowRun, f func(float64) float64) {
	t.Helper()
	dist := func(x float64) float64 { return math.Abs(f(x)) }
	if err := sameMapped(got.centers, base.centers, f); err != nil {
		t.Errorf("%s: centres: %v", what, err)
	}
	if err := sameMapped(got.coreset, base.coreset, f); err != nil {
		t.Errorf("%s: coreset: %v", what, err)
	}
	if got.coverage != dist(base.coverage) {
		t.Errorf("%s: CoverageBound %v, want %v", what, got.coverage, dist(base.coverage))
	}
	if got.search != dist(base.search) {
		t.Errorf("%s: search radius %v, want %v", what, got.search, dist(base.search))
	}
	if !reflect.DeepEqual(got.buckets, base.buckets) {
		t.Errorf("%s: live buckets %v, want %v", what, got.buckets, base.buckets)
	}
	if !reflect.DeepEqual(got.weights, base.weights) {
		t.Errorf("%s: coreset weights differ", what)
	}
	if got.uncovered != base.uncovered {
		t.Errorf("%s: uncovered weight %d, want %d", what, got.uncovered, base.uncovered)
	}
}

// checkWindowReduced fails unless some live bucket came out of a coalesce
// that ran the reduction: one whose two halves each held more than tau
// points, so neither could still be buffering raw points.
func checkWindowReduced(t *testing.T, tau int, buckets []window.BucketInfo) {
	t.Helper()
	for _, b := range buckets {
		if b.Level >= 1 && b.Count/2 > int64(tau) {
			return
		}
	}
	t.Fatalf("no live bucket was built by a reduction: %v", buckets)
}
