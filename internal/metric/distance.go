package metric

import (
	"math"
	"sync/atomic"
)

// Distance computes the distance between two points of equal dimensionality.
// Implementations must satisfy the metric axioms (non-negativity, identity of
// indiscernibles, symmetry, and the triangle inequality); the approximation
// guarantees of every algorithm in this repository depend on them.
//
// Implementations must also be safe for concurrent use: the parallel
// distance engine (see parallel.go) invokes the function from multiple
// goroutines by default. Pure functions of their arguments — like every
// built-in here — are safe; closures carrying mutable scratch state are not
// (guard them with a mutex, or force the sequential path with one worker).
type Distance func(a, b Point) float64

// Euclidean is the L2 distance, the metric used by all experiments in the
// paper. The summation order (four independent accumulator lanes combined as
// (s0+s1)+(s2+s3), remainder into lane 0) is part of the determinism
// contract: the batched kernels of EuclideanSpace accumulate in exactly this
// order, so the surrogate path and this scalar path agree bit for bit.
func Euclidean(a, b Point) float64 {
	return math.Sqrt(SquaredEuclidean(a, b))
}

// SquaredEuclidean returns the squared L2 distance — the comparison-domain
// surrogate of EuclideanSpace. It is NOT a metric (it violates the triangle
// inequality) and must not be passed to the clustering algorithms directly;
// argmin/threshold reductions over it are exactly equivalent to reductions
// over Euclidean because the square root is monotone. The four-lane
// accumulation breaks the floating-point add dependency chain (the hot-path
// kernels are compute-bound on it) and is replicated verbatim by the batched
// kernels.
func SquaredEuclidean(a, b Point) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+3 < len(a); j += 4 {
		d0 := a[j] - b[j]
		d1 := a[j+1] - b[j+1]
		d2 := a[j+2] - b[j+2]
		d3 := a[j+3] - b[j+3]
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	for ; j < len(a); j++ {
		d := a[j] - b[j]
		s0 += float64(d * d)
	}
	return (s0 + s1) + (s2 + s3)
}

// Manhattan is the L1 distance.
func Manhattan(a, b Point) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Chebyshev is the L-infinity distance.
func Chebyshev(a, b Point) float64 {
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Cosine is the cosine distance 1 - cos(a, b), clamped to [0, 2]. For vectors
// normalised to the unit sphere (as word2vec-style embeddings typically are)
// it is topologically equivalent to the angular metric; strictly speaking it
// does not satisfy the triangle inequality for arbitrary vectors, so prefer
// Angular for correctness-critical uses.
func Cosine(a, b Point) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i] * b[i])
		na += float64(a[i] * a[i])
		nb += float64(b[i] * b[i])
	}
	if na == 0 || nb == 0 {
		if na == 0 && nb == 0 {
			return 0
		}
		return 1
	}
	c := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return 1 - c
}

// Angular is the angular distance acos(cos(a,b))/pi, normalised to [0,1]. It
// is a proper metric on the unit sphere.
func Angular(a, b Point) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i] * b[i])
		na += float64(a[i] * a[i])
		nb += float64(b[i] * b[i])
	}
	if na == 0 || nb == 0 {
		if na == 0 && nb == 0 {
			return 0
		}
		return 0.5
	}
	c := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return math.Acos(c) / math.Pi
}

// Minkowski returns the Lp distance for the given order p >= 1.
func Minkowski(p float64) Distance {
	return func(a, b Point) float64 {
		var s float64
		for i := range a {
			s += math.Pow(math.Abs(a[i]-b[i]), p)
		}
		return math.Pow(s, 1/p)
	}
}

// Counter wraps a Distance and counts how many times it is invoked. Distance
// evaluations dominate the running time of every algorithm here, so the
// experiment harness and the ablation benchmarks report them alongside
// wall-clock time. Counter is safe for concurrent use.
type Counter struct {
	dist  Distance
	calls atomic.Int64
}

// NewCounter returns a counting wrapper around dist.
func NewCounter(dist Distance) *Counter {
	return &Counter{dist: dist}
}

// Distance returns the wrapped distance function; each call increments the
// counter.
func (c *Counter) Distance(a, b Point) float64 {
	c.calls.Add(1)
	return c.dist(a, b)
}

// Calls returns the number of distance evaluations so far.
func (c *Counter) Calls() int64 { return c.calls.Load() }

// Reset sets the call counter back to zero.
func (c *Counter) Reset() { c.calls.Store(0) }

// DistanceToSet returns min_{x in set} dist(p, x) together with the index of
// the closest point. An empty set yields (+Inf, -1).
func DistanceToSet(dist Distance, p Point, set Dataset) (float64, int) {
	best := math.Inf(1)
	idx := -1
	for i, q := range set {
		if d := dist(p, q); d < best {
			best = d
			idx = i
		}
	}
	return best, idx
}

// Radius returns max_{s in points} d(s, centers), i.e. r_T(S) in the paper's
// notation. An empty center set yields +Inf (for non-empty points) and an
// empty point set yields 0.
func Radius(dist Distance, points Dataset, centers Dataset) float64 {
	if len(points) == 0 {
		return 0
	}
	var r float64
	for _, p := range points {
		d, _ := DistanceToSet(dist, p, centers)
		if d > r {
			r = d
		}
	}
	return r
}

// RadiusExcluding returns r_{T,Z_T}(S): the maximum distance from points to
// centers after discarding the z points farthest from the centers (the
// outlier-aware radius of the k-center problem with z outliers). It returns 0
// when z >= len(points).
func RadiusExcluding(dist Distance, points Dataset, centers Dataset, z int) float64 {
	if len(points) == 0 || z >= len(points) {
		return 0
	}
	if z <= 0 {
		return Radius(dist, points, centers)
	}
	dists := make([]float64, len(points))
	for i, p := range points {
		dists[i], _ = DistanceToSet(dist, p, centers)
	}
	// The radius with z outliers is the (n-z)-th smallest distance, i.e. we
	// drop the z largest. Select rather than sort: len(points) can be large.
	return selectInPlace(dists, len(dists)-z-1)
}

// Assign maps every point to the index of its closest center, producing the
// clustering induced by the center set.
func Assign(dist Distance, points Dataset, centers Dataset) []int {
	out := make([]int, len(points))
	for i, p := range points {
		_, idx := DistanceToSet(dist, p, centers)
		out[i] = idx
	}
	return out
}

// PairwiseDistancesIn returns all n*(n-1)/2 distinct pairwise TRUE distances
// of the points: row i is one batched DistancesTo over points[i+1:], converted
// to the true domain in place, and occupies out[i*n - i*(i+1)/2 ...].
func PairwiseDistancesIn(sp Space, points Dataset) []float64 {
	n := len(points)
	if n < 2 {
		return nil
	}
	out := make([]float64, n*(n-1)/2)
	off := 0
	for i := 0; i < n-1; i++ {
		row := out[off : off+n-1-i]
		sp.DistancesTo(row, points[i], points[i+1:])
		for j, s := range row {
			row[j] = sp.FromSurrogate(s)
		}
		off += n - 1 - i
	}
	return out
}

// Diameter returns the maximum pairwise distance of the dataset (0 for fewer
// than two points).
func Diameter(dist Distance, points Dataset) float64 {
	var m float64
	for i := 0; i < len(points); i++ {
		for j := i + 1; j < len(points); j++ {
			if d := dist(points[i], points[j]); d > m {
				m = d
			}
		}
	}
	return m
}
