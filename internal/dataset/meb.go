package dataset

import (
	"errors"
	"math"

	"coresetclustering/internal/metric"
)

// The paper's experiments use the minimum enclosing ball (MEB) of each
// dataset to inject artificial outliers (InjectOutliers): z points are added
// at distance 100*r_MEB from the MEB center in random directions, so every
// injected point is at distance at least 99*r_MEB from every original point.
// An approximate ball from the Badoiu–Clarkson core-set iteration suffices.

// mebBall is an approximate minimum enclosing ball.
type mebBall struct {
	// Center is the ball center (generally not an input point).
	Center metric.Point
	// Radius is the maximum distance from Center to any input point, i.e. an
	// upper bound on the optimal MEB radius within the approximation factor.
	Radius float64
	// Iterations is the number of Badoiu–Clarkson iterations performed.
	Iterations int
}

// approximateMEB computes a (1+eps)-approximate minimum enclosing ball of the
// dataset with the Badoiu–Clarkson iteration: start from an arbitrary point
// and repeatedly move the candidate center a shrinking step towards the
// current farthest point. The number of iterations is ceil(1/eps^2),
// capped at maxIterations when positive.
func approximateMEB(points metric.Dataset, eps float64, maxIterations int) (*mebBall, error) {
	if len(points) == 0 {
		return nil, errors.New("dataset: minimum enclosing ball of an empty dataset")
	}
	if err := points.Validate(); err != nil {
		return nil, err
	}
	if eps <= 0 {
		eps = 0.1
	}
	iters := int(math.Ceil(1 / (eps * eps)))
	if maxIterations > 0 && iters > maxIterations {
		iters = maxIterations
	}
	if iters < 1 {
		iters = 1
	}

	center := points[0].Clone()
	for i := 1; i <= iters; i++ {
		// Farthest point from the current center.
		farIdx, farDist := 0, -1.0
		for j, p := range points {
			if d := metric.Euclidean(center, p); d > farDist {
				farDist = d
				farIdx = j
			}
		}
		if farDist == 0 {
			return &mebBall{Center: center, Radius: 0, Iterations: i}, nil
		}
		// Move the center 1/(i+1) of the way towards the farthest point.
		step := 1 / float64(i+1)
		far := points[farIdx]
		for c := range center {
			center[c] += float64(step * (far[c] - center[c]))
		}
	}
	radius := 0.0
	for _, p := range points {
		if d := metric.Euclidean(center, p); d > radius {
			radius = d
		}
	}
	return &mebBall{Center: center, Radius: radius, Iterations: iters}, nil
}
