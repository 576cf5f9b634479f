package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"coresetclustering/internal/metric"
)

// InjectionResult describes the outcome of InjectOutliers.
type InjectionResult struct {
	// Points is the augmented dataset: the original points followed by the
	// injected outliers.
	Points metric.Dataset
	// OutlierIndices are the indices of the injected points within Points.
	OutlierIndices []int
	// MEBRadius and MEBCenter describe the approximate minimum enclosing ball
	// of the original dataset used to place the outliers.
	MEBRadius float64
	MEBCenter metric.Point
}

// InjectOutliers reproduces the paper's outlier-injection procedure
// (Section 5.2): compute the (approximate) minimum enclosing ball of the
// dataset, then add z points at distance 100*r_MEB from its center in random
// directions, rejecting directions that would place two injected points
// within 10*r_MEB of each other. Every injected point is therefore at
// distance at least 99*r_MEB from every original point, making it a true
// outlier.
func InjectOutliers(ds metric.Dataset, z int, seed int64) (*InjectionResult, error) {
	if len(ds) == 0 {
		return nil, errors.New("dataset: cannot inject outliers into an empty dataset")
	}
	if z < 0 {
		return nil, fmt.Errorf("dataset: negative outlier count %d", z)
	}
	ball, err := approximateMEB(ds, 0.05, 200)
	if err != nil {
		return nil, fmt.Errorf("dataset: MEB computation failed: %w", err)
	}
	radius := ball.Radius
	if radius == 0 {
		// Degenerate dataset (all points coincide): use a unit ball so the
		// injected points are still far away.
		radius = 1
	}
	rng := rand.New(rand.NewSource(seed))
	dim := ds.Dim()

	out := &InjectionResult{
		Points:    ds.Clone(),
		MEBRadius: ball.Radius,
		MEBCenter: ball.Center,
	}
	placed := make(metric.Dataset, 0, z)
	const maxAttempts = 10000
	for len(placed) < z {
		attempts := 0
		for {
			attempts++
			if attempts > maxAttempts {
				return nil, fmt.Errorf("dataset: could not place %d mutually distant outliers in dimension %d", z, dim)
			}
			dir := randomDirection(rng, dim)
			cand := make(metric.Point, dim)
			for d := 0; d < dim; d++ {
				cand[d] = ball.Center[d] + float64(100*radius*dir[d])
			}
			if tooClose(cand, placed, 10*radius) {
				continue
			}
			placed = append(placed, cand)
			break
		}
	}
	for _, p := range placed {
		out.OutlierIndices = append(out.OutlierIndices, len(out.Points))
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// randomDirection returns a uniformly random unit vector in the given
// dimension.
func randomDirection(rng *rand.Rand, dim int) metric.Point {
	for {
		v := make(metric.Point, dim)
		var norm float64
		for d := 0; d < dim; d++ {
			v[d] = rng.NormFloat64()
			norm += float64(v[d] * v[d])
		}
		if norm == 0 {
			continue
		}
		norm = math.Sqrt(norm)
		for d := 0; d < dim; d++ {
			v[d] /= norm
		}
		return v
	}
}

// tooClose reports whether cand is within minDist of any already-placed point.
func tooClose(cand metric.Point, placed metric.Dataset, minDist float64) bool {
	for _, p := range placed {
		if metric.Euclidean(cand, p) < minDist {
			return true
		}
	}
	return false
}

// Inflate reproduces the paper's SMOTE-like dataset inflation (Section 5.3):
// it grows the dataset to factor times its original size by repeatedly
// sampling a random original point and perturbing each coordinate with
// Gaussian noise whose standard deviation is 10% of that coordinate's range
// over the original dataset. The original points are retained as a prefix of
// the result, so the inflated dataset keeps the same clustered structure.
func Inflate(ds metric.Dataset, factor int, seed int64) (metric.Dataset, error) {
	if len(ds) == 0 {
		return nil, errors.New("dataset: cannot inflate an empty dataset")
	}
	if factor < 1 {
		return nil, fmt.Errorf("dataset: inflation factor must be at least 1, got %d", factor)
	}
	if factor == 1 {
		return ds.Clone(), nil
	}
	lo, hi, err := ds.BoundingBox()
	if err != nil {
		return nil, err
	}
	dim := ds.Dim()
	sigma := make([]float64, dim)
	for d := 0; d < dim; d++ {
		sigma[d] = 0.1 * (hi[d] - lo[d])
	}
	rng := rand.New(rand.NewSource(seed))
	target := len(ds) * factor
	out := make(metric.Dataset, 0, target)
	out = append(out, ds.Clone()...)
	for len(out) < target {
		src := ds[rng.Intn(len(ds))]
		p := make(metric.Point, dim)
		for d := 0; d < dim; d++ {
			p[d] = src[d] + float64(rng.NormFloat64()*sigma[d])
		}
		out = append(out, p)
	}
	return out, nil
}

// Sample returns n points drawn uniformly at random without replacement
// (Figure 8 uses 10,000-point samples to keep the quadratic baseline
// feasible). If n >= len(ds) a shuffled copy of the whole dataset is
// returned.
func Sample(ds metric.Dataset, n int, seed int64) metric.Dataset {
	shuffled := Shuffle(ds, seed)
	if n >= len(shuffled) || n < 0 {
		return shuffled
	}
	return shuffled[:n]
}
