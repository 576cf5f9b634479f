package streaming

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"coresetclustering/internal/metric"
)

// TestCheckPointBound pins the edges of the admission rule: the bound itself
// is admitted, the next float past it is not, and neither are NaN, ±Inf,
// empty points or more than MaxDim coordinates.
func TestCheckPointBound(t *testing.T) {
	over := math.Nextafter(MaxCoordinate, math.Inf(1))
	for _, p := range []metric.Point{{MaxCoordinate, -MaxCoordinate}, {0, math.SmallestNonzeroFloat64}} {
		if err := CheckPoint(p, 2); err != nil {
			t.Errorf("%v refused: %v", p, err)
		}
	}
	for _, p := range []metric.Point{{over, 0}, {0, -over}, {1e200, 0}, {math.NaN(), 0}, {math.Inf(-1), 0}} {
		if err := CheckPoint(p, 2); !errors.Is(err, metric.ErrInvalidCoordinate) {
			t.Errorf("%v: %v, want ErrInvalidCoordinate", p, err)
		}
	}
	if err := CheckPoint(metric.Point{1}, 2); !errors.Is(err, metric.ErrDimensionMismatch) {
		t.Errorf("1-d point into a 2-d stream: %v", err)
	}
	for _, p := range []metric.Point{nil, {}, make(metric.Point, MaxDim+1)} {
		if CheckPoint(p, 0) == nil {
			t.Errorf("point of %d coordinates admitted", len(p))
		}
	}
}

// TestMaxCoordinateKeepsBuiltinSpacesFinite is MaxCoordinate's derivation as
// a test: at the largest admitted dimension, with every coordinate at ±B,
// each built-in space's scalar distance, surrogate, FromSurrogate and batched
// kernels stay finite.
func TestMaxCoordinateKeepsBuiltinSpacesFinite(t *testing.T) {
	p, q := make(metric.Point, MaxDim), make(metric.Point, MaxDim)
	for i := range p {
		p[i], q[i] = MaxCoordinate, -MaxCoordinate
		if i%2 == 1 {
			q[i] = MaxCoordinate // a non-trivial angle
		}
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, name := range metric.SpaceNames() {
		sp := metric.SpaceByName(name)
		for _, pair := range [][2]metric.Point{{p, q}, {q, p}, {p, p}} {
			a, b := pair[0], pair[1]
			s := sp.Surrogate(a, b)
			row := make([]float64, 2)
			sp.DistancesTo(row, a, metric.Dataset{a, b})
			near, _ := sp.ArgNearest(a, metric.Dataset{b})
			for what, v := range map[string]float64{
				"Distance": sp.Distance(a, b), "Surrogate": s, "FromSurrogate": sp.FromSurrogate(s),
				"DistancesTo": row[1], "ArgNearest": near,
			} {
				if !finite(v) {
					t.Errorf("%s: %s = %v at |c| = 2^500, dim 2^20", name, what, v)
				}
			}
		}
	}
}

// TestNonFiniteDistanceIsTypedAndChangesNothing covers the doubling algorithm
// on a caller's distance function that overflows, where no magnitude bound
// can help: every refused point leaves the processor exactly as it was, the
// error is ErrNonFiniteDistance, and nothing loops.
func TestNonFiniteDistanceIsTypedAndChangesNothing(t *testing.T) {
	infinite := metric.SpaceFromDistance("infinite", func(a, b metric.Point) float64 {
		if a.Equal(b) {
			return 0
		}
		return math.Inf(1)
	})
	minkowski3 := metric.SpaceFromDistance("minkowski3", metric.Minkowski(3))
	line := func(scale float64, xs ...float64) metric.Dataset {
		ds := make(metric.Dataset, len(xs))
		for i, x := range xs {
			ds[i] = metric.Point{x * scale, 0}
		}
		return ds
	}
	cases := []struct {
		name    string
		space   metric.Space
		tau     int
		accept  metric.Dataset // observed first, all admitted
		refused metric.Dataset // each refused on its own
	}{
		// Every pair is at +Inf: initialisation cannot pick a phi.
		{"+Inf adapter, initialisation", infinite, 3, line(1, 1, 2, 3), line(1, 4, 5, 6)},
		// The paper's repro shape on a custom space: (1e120)^3 overflows.
		{"Minkowski(3) at 1e120, initialisation", minkowski3, 3, line(1e120, 1, 2, 3), line(1e120, 4, 5, 6, 7, 8, 9, 10)},
		// Initialised on finite distances; the new point has no finite
		// nearest center (ArgNearest answers -1).
		{"Minkowski(3) at 1e120, update rule", minkowski3, 3, line(1, 0, 1, 2, 3), line(1e120, 1, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDoublingIn(tc.space, tc.tau)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tc.accept {
				if err := d.Process(p); err != nil {
					t.Fatalf("%v refused: %v", p, err)
				}
			}
			want := d.State()
			for _, p := range tc.refused {
				if err := d.Process(p); !errors.Is(err, ErrNonFiniteDistance) {
					t.Fatalf("%v: %v, want ErrNonFiniteDistance", p, err)
				}
				if got := d.State(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v changed the state:\n got %+v\nwant %+v", p, got, want)
				}
			}
			if err := d.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMergeRuleStallIsTyped drives the merge loop into its terminal case:
// more than tau centers remain that no finite threshold can merge, so phi can
// only double until 8*phi overflows.
func TestMergeRuleStallIsTyped(t *testing.T) {
	t.Run("Process, asymmetric adapter", func(t *testing.T) {
		// Finite only from a larger first coordinate to a smaller one: the
		// update rule sees the new point's distance to its nearest center,
		// the merge rule the reverse direction, which is +Inf.
		d, err := NewDoublingIn(metric.SpaceFromDistance("one-way", func(a, b metric.Point) float64 {
			if a[0] >= b[0] {
				return a[0] - b[0]
			}
			return math.Inf(1)
		}), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range (metric.Dataset{{5}, {0}}) { // phi = 2.5, one center
			if err := d.Process(p); err != nil {
				t.Fatal(err)
			}
		}
		want := d.State()
		if err := d.Process(metric.Point{100}); !errors.Is(err, ErrNonFiniteDistance) {
			t.Fatalf("got %v, want ErrNonFiniteDistance", err)
		}
		if got := d.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("the stalled merge changed the state:\n got %+v\nwant %+v", got, want)
		}
	})
	t.Run("MergeDoublings, mutually distant shards", func(t *testing.T) {
		sp := metric.SpaceFromDistance("minkowski3", metric.Minkowski(3))
		shard := func(pts ...metric.Point) *Doubling {
			d, err := NewDoublingIn(sp, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				if err := d.Process(p); err != nil {
					t.Fatal(err)
				}
			}
			return d
		}
		// Each shard merges its one finite pair and keeps two centers; the
		// union's four are pairwise +Inf apart.
		a := shard(metric.Point{0, 0}, metric.Point{1, 0}, metric.Point{1e120, 0})
		b := shard(metric.Point{0, 2e120}, metric.Point{1, 2e120}, metric.Point{0, 3e120})
		if _, err := MergeDoublings(a, b); !errors.Is(err, ErrNonFiniteDistance) {
			t.Fatalf("got %v, want ErrNonFiniteDistance", err)
		}
	})
}

// TestDenormalMinimumDistanceTerminates is the built-in-space hang the
// admission rule cannot exclude: Manhattan distances of adjacent denormals
// are the smallest positive float, half of which rounds to zero, and a zero
// phi never doubles. Each stream must terminate with its invariants intact.
func TestDenormalMinimumDistanceTerminates(t *testing.T) {
	const tiny = math.SmallestNonzeroFloat64
	for _, sp := range []metric.Space{metric.ManhattanSpace, metric.ChebyshevSpace} {
		for _, tau := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/tau=%d", sp.Name(), tau), func(t *testing.T) {
				d, err := NewDoublingIn(sp, tau)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 12; i++ {
					if err := d.Process(metric.Point{float64(i%5) * tiny}); err != nil {
						t.Fatalf("point %d: %v", i, err)
					}
					if err := d.CheckInvariants(); err != nil {
						t.Fatalf("point %d: %v", i, err)
					}
				}
			})
		}
	}
}
