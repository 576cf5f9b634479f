package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"coresetclustering/internal/metric"
)

func TestApproximateErrors(t *testing.T) {
	if _, err := approximateMEB(nil, 0.1, 0); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := approximateMEB(metric.Dataset{{math.NaN()}}, 0.1, 0); err == nil {
		t.Error("NaN dataset accepted")
	}
}

func TestApproximateSinglePoint(t *testing.T) {
	res, err := approximateMEB(metric.Dataset{{3, 4}}, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius != 0 {
		t.Errorf("radius = %v, want 0", res.Radius)
	}
	if !res.contains(metric.Point{3, 4}) {
		t.Error("ball does not contain its only point")
	}
}

func TestApproximateCoincidentPoints(t *testing.T) {
	res, err := approximateMEB(metric.Dataset{{1, 1}, {1, 1}, {1, 1}}, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius != 0 {
		t.Errorf("radius = %v, want 0", res.Radius)
	}
}

func TestApproximateKnownConfiguration(t *testing.T) {
	// Two antipodal points: the MEB has radius half their distance; the
	// approximation should be within ~20% with eps=0.05.
	ds := metric.Dataset{{-1, 0}, {1, 0}}
	res, err := approximateMEB(ds, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius < 1-1e-9 {
		t.Errorf("radius = %v, want >= 1 (must enclose both points)", res.Radius)
	}
	if res.Radius > 1.3 {
		t.Errorf("radius = %v, want close to 1", res.Radius)
	}
}

func TestApproximateEnclosureProperty(t *testing.T) {
	// The ball must always contain every input point, for any eps.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		dim := 1 + rng.Intn(5)
		ds := make(metric.Dataset, n)
		for i := range ds {
			p := make(metric.Point, dim)
			for j := range p {
				p[j] = rng.NormFloat64() * 10
			}
			ds[i] = p
		}
		res, err := approximateMEB(ds, 0.1, 0)
		if err != nil {
			return false
		}
		for _, p := range ds {
			if !res.contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("enclosure violated: %v", err)
	}
}

func TestApproximateQualityProperty(t *testing.T) {
	// The approximate radius must be within a small factor of a simple lower
	// bound: half the diameter.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		ds := make(metric.Dataset, n)
		for i := range ds {
			ds[i] = metric.Point{rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.NormFloat64() * 5}
		}
		res, err := approximateMEB(ds, 0.05, 0)
		if err != nil {
			return false
		}
		lower := metric.Diameter(metric.Euclidean, ds) / 2
		// Optimal radius is between lower and 2*lower (it is at most the
		// diameter); a (1+eps) approximation stays below ~1.3*diameter here.
		return res.Radius <= 2.6*lower+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("quality bound violated: %v", err)
	}
}

func TestApproximateMaxIterationsCap(t *testing.T) {
	ds := metric.Dataset{{0, 0}, {1, 0}, {0, 1}, {5, 5}}
	res, err := approximateMEB(ds, 0.001, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 7 {
		t.Errorf("iterations = %d, want capped at 7", res.Iterations)
	}
	// Non-positive eps defaults rather than dividing by zero.
	if _, err := approximateMEB(ds, 0, 5); err != nil {
		t.Errorf("eps=0 should default: %v", err)
	}
}

// contains reports whether the ball contains the point, within a small
// absolute tolerance for floating-point error.
func (r *mebBall) contains(p metric.Point) bool {
	return metric.Euclidean(r.Center, p) <= r.Radius+1e-9
}
