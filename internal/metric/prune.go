package metric

import "math"

// This file declares the triangle-inequality capability of a Space: what a
// consumer needs to prove, WITHOUT evaluating it, that a distance cannot win
// a nearest-centre comparison. The consumer today is the pruned phase of
// internal/gmm.
//
// The lemma. Let b be the centre currently closest to a point p and c a
// newly selected centre. If d(c, b) >= 2*d(p, b) then, by the triangle
// inequality, d(c, p) >= d(c, b) - d(p, b) >= d(p, b): c cannot capture p.
// In the surrogate domain the test reads
//
//	Surrogate(p, b) < h(Surrogate(c, b))
//
// where h maps a surrogate to (at most) the surrogate of half its true
// distance. A space that implements Pruner supplies h and promises that
// whenever the test holds for the surrogates ITS KERNELS COMPUTED, the
// surrogate its kernels would compute for (c, p) is >= the one computed for
// (p, b) — so a strict "smaller wins" update (UpdateNearest) provably leaves
// p's cache entry untouched, bit for bit. Rounding is therefore part of the
// contract: h rounds DOWN by a slack that dominates the kernels' error, and a
// point exactly on the boundary 2*d(p, b) == d(c, b) fails the strict test
// and is evaluated, never skipped.
//
// Which spaces opt in. Euclidean, Manhattan, Chebyshev and Angular are
// metrics and implement Pruner. CosineSpace does NOT: 1-cos violates the
// triangle inequality (for unit vectors at 0, 45 and 90 degrees,
// 1 > 0.293 + 0.293), so no bound of this form is sound for it. The
// SpaceFromDistance adapter does NOT either: a caller-supplied function
// carries no promise about its rounding error, and instrumented distances
// (Counter) rely on the adapter calling them exactly once per pair a dense
// algorithm examines. CountingSpace forwards whatever its inner space
// declares (see PrunerOf), so evaluation counts taken through it are the
// counts of the real run.

// Pruner is the optional capability of a Space whose true distance satisfies
// the triangle inequality and whose kernels have a known rounding-error
// bound.
type Pruner interface {
	// HalfSurrogates replaces, in place, every s[i] — a surrogate computed by
	// the space's kernels between two points of dimensionality dim — by a
	// surrogate-domain value h at or below the surrogate of HALF the true
	// distance, lowered by a slack that dominates the kernels' rounding
	// error: for any points p, b, c with computed surrogates,
	// Surrogate(p, b) < h(Surrogate(c, b)) implies
	// Surrogate(c, p) >= Surrogate(p, b). An entry becomes -Inf ("no
	// surrogate is smaller") when nothing can be promised for it: zero,
	// denormal-range, infinite or NaN surrogates. (A slice, not a scalar:
	// the caller converts one value per existing center per round.)
	HalfSurrogates(s []float64, dim int)
}

// PrunerOf returns the pruning capability of sp, or nil when the space does
// not have it. It sees through CountingSpace.
func PrunerOf(sp Space) Pruner {
	if c, ok := sp.(*CountingSpace); ok {
		return PrunerOf(c.inner)
	}
	p, _ := sp.(Pruner)
	return p
}

// pruneSlack is the relative slack of the built-in HalfSurrogates
// implementations, 8*(dim+8)*u with u = 2^-53.
//
// The argument, for the squared-L2 kernel (the others are easier). Every
// computed surrogate is s^ = s*(1+e) with |e| <= g, g = (dim+5)*u: one
// rounding for the coordinate difference, counted twice because it is
// squared, one for the product, at most dim/4+1 for the lane accumulation and
// two for the final (s0+s1)+(s2+s3); all terms are non-negative, so the
// errors do not cancel into anything larger. Suppose s^_pb < s^_cb/4*(1-eps).
// Going to true distances, d_pb < (d_cb/2)*rho with
// rho^2 = (1-eps)(1+g)/(1-g) < 1, hence d_cp >= d_cb - d_pb > (d_cb/2)(2-rho)
// and s^_cp >= s_cp(1-g) > (s_cb/4)(2-rho)^2(1-g) > (s_cb/4)(1-g), while
// s^_pb < (s_cb/4)(1+g)(1-eps). So s^_cp > s^_pb as soon as
// (1-g) >= (1+g)(1-eps), i.e. eps >= 2g/(1+g). eps = 8*(dim+8)*u > 8g leaves
// a factor four for the two roundings of HalfSurrogates' own product and for
// the absolute error of squared terms that underflow (at most dim*2^-1075,
// negligible against the minPrunable floor below). Manhattan accumulates dim
// roundings (g = dim*u) and Chebyshev one; both are exact in the denormal
// range.
func pruneSlack(dim int) float64 { return float64(dim+8) * 0x1p-50 }

// minPrunable is the smallest surrogate the scaled HalfSurrogates
// implementations make a promise for: far enough above the denormal range
// that the relative-error argument of pruneSlack holds for every operand.
const minPrunable = 0x1p-900

// scaledHalves is HalfSurrogates for surrogates that are a power of the true
// distance: the surrogate of d/2 is s*factor exactly (factor a power of
// two), lowered by the slack.
func scaledHalves(s []float64, factor float64, dim int) {
	scale := factor * (1 - pruneSlack(dim))
	for i, v := range s {
		if v >= minPrunable && v <= math.MaxFloat64 {
			s[i] = v * scale
		} else {
			s[i] = math.Inf(-1)
		}
	}
}

// HalfSurrogates: the surrogate is d^2, so half the distance is s/4.
func (euclideanSpace) HalfSurrogates(s []float64, dim int) { scaledHalves(s, 0.25, dim) }

// HalfSurrogates: the surrogate is the distance itself.
func (manhattanSpace) HalfSurrogates(s []float64, dim int) { scaledHalves(s, 0.5, dim) }

// HalfSurrogates: the surrogate is the distance itself.
func (chebyshevSpace) HalfSurrogates(s []float64, dim int) { scaledHalves(s, 0.5, dim) }

// HalfSurrogates for the angular metric, whose surrogate is -cos(theta) of the
// angle theta = pi*d between the two directions (the zero-vector conventions
// of Angular — d(0, x) = 1/2, d(0, 0) = 0 — keep it a metric).
//
// Rounding here is ABSOLUTE in the cosine: the computed value is within
// (dim+2)*2^-52 of the true one (dim roundings each for the dot product and
// the two norms, relative to |a||b| by Cauchy-Schwarz, plus the square roots,
// product and quotient), which near theta = 0 is an uncertainty of about
// sqrt(2*delta) in the angle. With delta four times that bound and
// alpha = 2*sqrt(delta): theta_lo = acos(-s + delta) is at most the true
// angle between the centres; a point whose computed cosine to its owner
// exceeds cos(theta_lo/2 - alpha) + delta truly lies within
// theta_lo/2 - alpha of it, hence at least 2*alpha closer to its owner than
// to the new centre, and cos(x) - cos(x + 2*alpha) >= 2*sin(alpha)^2 > 7*delta
// covers both cosines' errors (and math.Acos / math.Cos's own last-bit
// errors). Precondition: the points' squared norms neither underflow nor
// overflow, as everywhere else in this space.
func (angularSpace) HalfSurrogates(s []float64, dim int) {
	delta := float64(dim+2) * 0x1p-50
	alpha := 2 * math.Sqrt(delta)
	for i, v := range s {
		s[i] = math.Inf(-1)
		if !(v >= -1 && v <= 1) {
			continue
		}
		c := -v + delta
		if c >= 1 {
			continue
		}
		if half := math.Acos(c)/2 - alpha; half > 0 {
			s[i] = -(math.Cos(half) + delta)
		}
	}
}
