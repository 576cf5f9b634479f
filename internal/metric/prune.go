package metric

import "math"

// This file declares the triangle-inequality capability of a Space: what a
// consumer needs to prove, WITHOUT evaluating it, that a distance cannot win
// a nearest-centre comparison. It states two rounding contracts, once, and
// prune_test.go tests them here. The consumers are the pruned phase of
// internal/gmm (both contracts), the hinted nearest-centre pass of
// parallel.go (the first), and the doubling algorithm's update rule in
// internal/streaming (both: its pivot index chains a threshold per centre and
// pivot, and skips a group on the first contract's test).
//
// Contract 1, the lemma. Let b be the centre currently closest to a point p
// and c another centre. If d(c, b) >= 2*d(p, b) then, by the triangle
// inequality, d(c, p) >= d(c, b) - d(p, b) >= d(p, b): c cannot capture p.
// In the surrogate domain the test reads
//
//	Surrogate(p, b) < h(Surrogate(c, b))
//
// where h maps a surrogate to (at most) the surrogate of half its true
// distance. A space that implements Pruner supplies h and promises that
// whenever the test holds for the surrogates ITS KERNELS COMPUTED, the
// surrogate its kernels would compute for (c, p) is STRICTLY GREATER than the
// one computed for (p, b). So a "smaller wins" update (UpdateNearest)
// provably leaves p's cache entry untouched, bit for bit, and an argmin that
// already holds b can leave c out without losing even a tie — which is what
// lets the hinted pass keep the lowest-index rule although it never looks at
// c's index. Rounding is therefore part of the contract: h rounds DOWN by a
// slack that dominates the kernels' error, and a point exactly on the
// boundary 2*d(p, b) == d(c, b) fails the strict test and is evaluated, never
// skipped.
//
// Contract 2, the chain. When c has NOT been evaluated against b but against
// a third point v (a pivot) that b is known to lie close to, the triangle
// inequality bounds the missing distance from below,
// d(c, b) >= d(c, v) - d(b, v), and HalfSurrogatesVia turns that into a value
// AT OR BELOW h(Surrogate(c, b)) for the pair that was never computed.
// Whatever passes the test against it passes contract 1's test, so the chain
// inherits its conclusion; it can only be less sharp, never unsound.
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
	// Surrogate(c, p) > Surrogate(p, b), strictly. An entry becomes -Inf
	// ("no surrogate is smaller") when nothing can be promised for it: zero,
	// denormal-range, infinite or NaN surrogates. (A slice, not a scalar:
	// the caller converts one value per center per round.)
	HalfSurrogates(s []float64, dim int)

	// ReachBounds replaces, in place, every reach[i] — the largest computed
	// Surrogate(b, v_i) over the points b a chained answer must hold for —
	// by the upper bound on their true distance to v_i that
	// HalfSurrogatesVia reads in its place. A caller keeps the bound beside
	// the reach and converts again only when the reach grows, not on every
	// query.
	ReachBounds(reach []float64, dim int)

	// HalfSurrogatesVia is HalfSurrogates for pairs that were never
	// evaluated. s[i] is the computed Surrogate(c, v_i) of a point c against
	// a pivot v_i and bound[i] is ReachBounds of the largest computed
	// Surrogate(b, v_i) over the points b the answer must hold for. Every
	// s[i] is replaced, in place,
	// by a value at or below HalfSurrogates(Surrogate(c, b)) for each of
	// those b, or by -Inf ("nothing promised: evaluate") for zero,
	// denormal-range, infinite or NaN inputs and when the bound
	// d(c, v_i) - d(b, v_i) is not positive. A space may decline by always
	// answering -Inf; its consumers then evaluate what they evaluated before.
	HalfSurrogatesVia(s, bound []float64, dim int)
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
// The argument, for the squared-L2 kernel. Every computed surrogate is
// s^ = s*(1+e) with |e| <= g, g = (dim+5)*u: one rounding for the coordinate
// difference, counted twice because it is squared, one for the product, at
// most dim/4+1 for the lane accumulation and two for the final
// (s0+s1)+(s2+s3); all terms are non-negative, so the errors do not cancel
// into anything larger. Suppose s^_pb < s^_cb/4*(1-eps). Going to true
// distances, d_pb < (d_cb/2)*rho with rho^2 = (1-eps)(1+g)/(1-g) < 1, hence
// d_cp >= d_cb - d_pb > (d_cb/2)(2-rho) and
// s^_cp >= s_cp(1-g) > (s_cb/4)(2-rho)^2(1-g) > (s_cb/4)(1-g), while
// s^_pb < (s_cb/4)(1+g)(1-eps). So s^_cp > s^_pb — strictly, d_cb being
// positive above the minPrunable floor — as soon as (1-g) >= (1+g)(1-eps),
// i.e. eps >= 2g/(1+g). eps = 8*(dim+8)*u > 8g leaves a factor four for the
// two roundings of HalfSurrogates' own product and for the absolute error of
// squared terms that underflow (at most dim*2^-1075, negligible against the
// minPrunable floor below).
//
// Manhattan and Chebyshev, whose surrogate is the distance itself: s^ =
// d*(1+e) with g = dim*u (one rounding per coordinate difference, one per
// addition) resp. g = u (max is exact), both exact in the denormal range.
// s^_pb < (s^_cb/2)(1-eps) gives d_pb < (d_cb/2)*rho with
// rho = (1-eps)(1+g)/(1-g) < 1, so d_cp >= d_cb - d_pb > (d_cb/2)(2-rho) >
// d_cb/2 and s^_cp >= d_cp(1-g) > (d_cb/2)(1-g) >= (d_cb/2)(1+g)(1-eps) >
// s^_pb under the same condition on eps: strict again.
//
// The chain (HalfSurrogatesVia), in the same notation, with D the map from a
// surrogate to its distance (square root, or the identity). From the computed
// s^_cv, lo = D(s^_cv)*(1-eps) is at most the true d_cv: the kernel's g, D's
// own rounding and the product's are all inside eps. From the computed reach
// r^ >= s^_bv, hi = D(max(r^, minPrunable))*(1+eps) is at least the true
// d_bv: the same roundings the other way, and a computed surrogate below the
// floor — where squared terms may have underflowed and the relative bound
// does not hold — belongs to a true one below floor*(1+3g), so the floor's
// distance covers it. lo and hi being rigorous bounds held in floats, the
// rounded difference L = lo (-) hi is at most (d_cv - d_bv)(1+u) <=
// d_cb*(1+u): cancellation amplifies only errors already in the operands, and
// these have none in the unsafe direction. HalfSurrogates would answer
// h = s^_cb*factor*(1-eps), rounded, with s^_cb >= S(d_cb)(1-g) for the
// surrogate S(d_cb) of the true distance; the chain answers
// S(L)*factor*(1-2*eps), and the extra eps pays for that g, the (1+u) above
// (squared for L2) and three more roundings with room to spare. It promises
// nothing unless its own answer is at least minPrunable — then s^_cb is above
// the floor too, so h is a promise and not -Inf — and unless s^_cv is at most
// maxVia: L > 0 means d_bv < d_cv, so s_cb < 4*s_cv, and neither s^_cb nor an
// intermediate of its kernel can have overflowed.
func pruneSlack(dim int) float64 { return float64(float64(dim+8) * 0x1p-50) }

// minPrunable is the smallest surrogate the scaled HalfSurrogates
// implementations make a promise for: far enough above the denormal range
// that the relative-error argument of pruneSlack holds for every operand.
// maxVia is the largest one the chain starts from, a factor 16 below
// overflow.
const (
	minPrunable = 0x1p-900
	maxVia      = 0x1p1020
)

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

// scaledReachBounds is ReachBounds for the same surrogates, hi of the
// argument above; squared says whether the surrogate is the square of the
// distance or the distance.
func scaledReachBounds(reach []float64, squared bool, dim int) {
	eps := pruneSlack(dim)
	for i, r := range reach {
		if r < minPrunable { // max(reach, minPrunable) inline: NaN stays NaN and fails L > 0
			r = minPrunable
		}
		if squared {
			r = math.Sqrt(r)
		}
		reach[i] = float64(r * (1 + eps))
	}
}

// scaledHalvesVia is HalfSurrogatesVia for the same surrogates.
func scaledHalvesVia(s, bound []float64, factor float64, squared bool, dim int) {
	eps := pruneSlack(dim)
	scale := factor * (1 - float64(2*eps))
	for i, v := range s {
		s[i] = math.Inf(-1)
		if !(v >= minPrunable && v <= maxVia) {
			continue
		}
		if squared {
			v = math.Sqrt(v)
		}
		l := float64(v*(1-eps)) - bound[i]
		if !(l > 0) {
			continue
		}
		if squared {
			l *= l
		}
		if h := l * scale; h >= minPrunable {
			s[i] = h
		}
	}
}

// HalfSurrogates: the surrogate is d^2, so half the distance is s/4.
func (euclideanSpace) HalfSurrogates(s []float64, dim int) { scaledHalves(s, 0.25, dim) }

// ReachBounds and HalfSurrogatesVia: the distances are the square roots.
func (euclideanSpace) ReachBounds(reach []float64, dim int) { scaledReachBounds(reach, true, dim) }

func (euclideanSpace) HalfSurrogatesVia(s, bound []float64, dim int) {
	scaledHalvesVia(s, bound, 0.25, true, dim)
}

// HalfSurrogates: the surrogate is the distance itself.
func (manhattanSpace) HalfSurrogates(s []float64, dim int) { scaledHalves(s, 0.5, dim) }

// ReachBounds and HalfSurrogatesVia: the surrogate is the distance itself.
func (manhattanSpace) ReachBounds(reach []float64, dim int) { scaledReachBounds(reach, false, dim) }

func (manhattanSpace) HalfSurrogatesVia(s, bound []float64, dim int) {
	scaledHalvesVia(s, bound, 0.5, false, dim)
}

// HalfSurrogates: the surrogate is the distance itself.
func (chebyshevSpace) HalfSurrogates(s []float64, dim int) { scaledHalves(s, 0.5, dim) }

// ReachBounds and HalfSurrogatesVia: the surrogate is the distance itself.
func (chebyshevSpace) ReachBounds(reach []float64, dim int) { scaledReachBounds(reach, false, dim) }

func (chebyshevSpace) HalfSurrogatesVia(s, bound []float64, dim int) {
	scaledHalvesVia(s, bound, 0.5, false, dim)
}

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
// errors) with more than 6*delta left over, so the two COMPUTED cosines
// differ and the promise is strict; the clamp to [-1, 1] cannot close the
// gap, the farther cosine being below 1 - 6*delta and the nearer above
// -1 + delta. A zero vector is at the midpoint distance (surrogate 0) from
// every other point, so against a non-zero owner it could only tie; it never
// passes the test there, every threshold being below 0 (half an angle stays
// short of a right angle).
// Precondition: the points' squared norms neither underflow nor overflow, as
// everywhere else in this space.
func (angularSpace) HalfSurrogates(s []float64, dim int) {
	delta := float64(float64(dim+2) * 0x1p-50)
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
		if half := float64(math.Acos(c)/2) - alpha; half > 0 {
			s[i] = -(math.Cos(half) + delta)
		}
	}
}

// ReachBounds leaves the reaches as they are: the chain declines.
func (angularSpace) ReachBounds([]float64, int) {}

// HalfSurrogatesVia declines: chaining two angles' absolute cosine errors
// through a difference needs an argument of its own, and the angular space's
// consumers lose nothing but the saving — they evaluate the pair instead.
func (angularSpace) HalfSurrogatesVia(s, _ []float64, _ int) {
	for i := range s {
		s[i] = math.Inf(-1)
	}
}
