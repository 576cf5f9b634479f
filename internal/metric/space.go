package metric

import (
	"math"
	"reflect"
	"sync/atomic"
)

// This file defines Space, the metric-space abstraction every hot path of the
// repository is built on. A Space bundles
//
//   - a named, true-distance function (the metric of the paper's analysis);
//   - a comparison-domain SURROGATE: a monotone transform of the true
//     distance that is cheaper to evaluate (squared Euclidean drops the
//     math.Sqrt; the angular and cosine spaces drop the math.Acos and reuse
//     the query point's norm across a whole block). Argmin, max and
//     order-statistic reductions are performed in the surrogate domain and
//     converted back with FromSurrogate exactly once per REPORTED value, so
//     the expensive op is paid once per radius, not once per evaluation;
//   - batched kernels (DistancesTo, ArgNearest, UpdateNearest) operating on
//     contiguous blocks of points. The parallel engine's chunk loops call
//     these instead of a per-pair Distance closure, which removes one
//     function call and one closure dereference per evaluation and lets the
//     compiler keep the coordinate loop tight.
//
// Determinism: every surrogate here is computed by exactly the floating-point
// operations that prefix the true distance (e.g. the squared-Euclidean sum is
// the pre-Sqrt value of Euclidean), and FromSurrogate applies the exact
// remaining operation. Max- and order-statistic reductions commute with the
// conversion bit for bit, FromSurrogate(max(s_i)) == max(FromSurrogate(s_i)),
// because FromSurrogate is monotone non-decreasing in s. Nothing else is
// needed: not correct rounding, which math.Sqrt has and math.Acos (behind the
// angular surrogate) does not.
// Argmin/argmax INDICES agree with the true-domain scan except in the
// measure-zero case where two distinct surrogates round to the same true
// distance; the golden and cross-path equivalence tests pin the behaviour on
// real data.

// Space is a first-class metric space: a named distance function together
// with batched block kernels and a comparison-domain surrogate. All built-in
// spaces are stateless and safe for concurrent use; custom implementations
// must be too, since the parallel engine invokes the kernels from multiple
// goroutines.
type Space interface {
	// Name identifies the space ("euclidean", "manhattan", ...). Named
	// built-in spaces are serializable through the sketch codec's registry;
	// adapter spaces report the name they were wrapped with.
	Name() string

	// Dist returns the scalar true-distance function of the space. For the
	// built-in spaces this is the canonical package-level function
	// (Euclidean, Manhattan, ...), so identity-based registries keep
	// working.
	Dist() Distance

	// Distance returns the true distance between two points.
	Distance(a, b Point) float64

	// Surrogate returns the comparison-domain surrogate of the distance: a
	// value m(d) for some strictly increasing m, cheaper to compute than d
	// itself. Surrogates of one space are mutually comparable; they must
	// never be compared across spaces or mixed with true distances.
	Surrogate(a, b Point) float64

	// ToSurrogate maps a true distance into the surrogate domain.
	ToSurrogate(d float64) float64

	// FromSurrogate maps a surrogate value back to the true distance.
	FromSurrogate(s float64) float64

	// DistancesTo writes dst[i] = Surrogate(p, block[i]) for every point of
	// the block. len(dst) must equal len(block).
	DistancesTo(dst []float64, p Point, block Dataset)

	// ArgNearest returns the minimum surrogate distance from p to the set
	// and the index attaining it, scanning ascending with a strict
	// comparison (lowest index wins ties). An empty set yields (+Inf, -1).
	ArgNearest(p Point, set Dataset) (float64, int)

	// UpdateNearest min-merges the surrogate distances to a new center c
	// into the per-point nearest caches: for every i, if
	// Surrogate(c, block[i]) < minDist[i] then minDist[i] and minIdx[i] are
	// updated (minIdx[i] = newIdx). It returns the maximum of minDist over
	// the block after the update (-Inf for an empty block). Callers
	// initialise minDist with +Inf to express "no center yet".
	UpdateNearest(minDist []float64, minIdx []int, c Point, newIdx int, block Dataset) float64
}

// Built-in spaces. Each pairs one of the package-level Distance functions
// with its natural surrogate:
//
//	EuclideanSpace  squared L2 (no Sqrt per evaluation)
//	ManhattanSpace  identity (L1 has no expensive tail op)
//	ChebyshevSpace  identity
//	AngularSpace    negated cosine (no Acos per evaluation; the query
//	                point's norm is computed once per block)
//	CosineSpace     negated cosine (same row-norm reuse)
var (
	EuclideanSpace Space = euclideanSpace{}
	ManhattanSpace Space = manhattanSpace{}
	ChebyshevSpace Space = chebyshevSpace{}
	AngularSpace   Space = angularSpace{}
	CosineSpace    Space = cosineSpace{}
)

// namedSpaces lists the built-in spaces by name; SpaceByName and SpaceNames
// iterate it in this order.
var namedSpaces = []Space{
	EuclideanSpace,
	ManhattanSpace,
	ChebyshevSpace,
	AngularSpace,
	CosineSpace,
}

// SpaceByName returns the built-in space with the given name, or nil if no
// space is registered under it.
func SpaceByName(name string) Space {
	for _, sp := range namedSpaces {
		if sp.Name() == name {
			return sp
		}
	}
	return nil
}

// SpaceNames lists the names of the built-in spaces.
func SpaceNames() []string {
	out := make([]string, len(namedSpaces))
	for i, sp := range namedSpaces {
		out[i] = sp.Name()
	}
	return out
}

// SpaceFor returns the Space for a scalar distance function: the native
// space when dist is one of the built-in functions (nil selects Euclidean,
// the library default), or a SpaceFromDistance adapter otherwise. It is the
// one place a Distance becomes a Space: the public WithDistance option and
// the sketch wire table resolve functions through it.
func SpaceFor(dist Distance) Space {
	if dist == nil {
		return EuclideanSpace
	}
	ptr := reflect.ValueOf(dist).Pointer()
	for _, sp := range namedSpaces {
		if reflect.ValueOf(sp.Dist()).Pointer() == ptr {
			return sp
		}
	}
	return SpaceFromDistance("custom", dist)
}

// SpaceFromDistance wraps a scalar Distance into a Space with the identity
// surrogate: every kernel evaluation calls dist exactly once and no
// comparison-domain shortcut is taken. It is the compatibility path for
// custom metrics (and for instrumented distances such as Counter, whose call
// counts must reflect every evaluation). The wrapped function must satisfy
// the metric axioms and be safe for concurrent calls.
func SpaceFromDistance(name string, dist Distance) Space {
	if dist == nil {
		dist = Euclidean
	}
	if name == "" {
		name = "custom"
	}
	return &distanceSpace{name: name, dist: dist}
}

// distanceSpace adapts a scalar Distance; surrogate == true distance.
type distanceSpace struct {
	name string
	dist Distance
}

func (s *distanceSpace) Name() string                    { return s.name }
func (s *distanceSpace) Dist() Distance                  { return s.dist }
func (s *distanceSpace) Distance(a, b Point) float64     { return s.dist(a, b) }
func (s *distanceSpace) Surrogate(a, b Point) float64    { return s.dist(a, b) }
func (s *distanceSpace) ToSurrogate(d float64) float64   { return d }
func (s *distanceSpace) FromSurrogate(d float64) float64 { return d }

func (s *distanceSpace) DistancesTo(dst []float64, p Point, block Dataset) {
	for i, q := range block {
		dst[i] = s.dist(p, q)
	}
}

func (s *distanceSpace) ArgNearest(p Point, set Dataset) (float64, int) {
	best := math.Inf(1)
	idx := -1
	for i, q := range set {
		if d := s.dist(p, q); d < best {
			best = d
			idx = i
		}
	}
	return best, idx
}

func (s *distanceSpace) UpdateNearest(minDist []float64, minIdx []int, c Point, newIdx int, block Dataset) float64 {
	m := math.Inf(-1)
	for i, q := range block {
		if d := s.dist(c, q); d < minDist[i] {
			minDist[i] = d
			minIdx[i] = newIdx
		}
		if minDist[i] > m {
			m = minDist[i]
		}
	}
	return m
}

// DistancesToIndexed writes dst[i] = sp.Surrogate(p, points[idx[i]]) for
// every i: DistancesTo over the points idx selects, in idx order (indices may
// repeat and come in any order), without first gathering their headers into a
// block. len(dst) must be at least len(idx). The values are the ones
// DistancesTo computes for the same pairs, bit for bit, and a CountingSpace
// counts len(idx) evaluations. Euclidean reads the rows in place; every other
// space gathers them and calls its DistancesTo.
func DistancesToIndexed(sp Space, dst []float64, p Point, points Dataset, idx []int32) {
	dst = dst[:len(idx)]
	switch s := sp.(type) {
	case euclideanSpace:
		i := 0
		if haveAVXKernels && len(p) >= 4 && len(p)%4 == 0 && len(idx) > 0 {
			i = distancesToIdxEucAVX(p, points, idx, dst)
		}
		for ; i < len(idx); i++ { // the pure-Go path, and an index the kernel refused
			dst[i] = SquaredEuclidean(p, points[idx[i]])
		}
	case *CountingSpace:
		s.evals.Add(int64(len(idx)))
		DistancesToIndexed(s.inner, dst, p, points, idx)
	default:
		block := make(Dataset, min(len(idx), 256))
		for lo := 0; lo < len(idx); lo += len(block) {
			hi := min(lo+len(block), len(idx))
			for i, j := range idx[lo:hi] {
				block[i] = points[j]
			}
			sp.DistancesTo(dst[lo:hi], p, block[:hi-lo])
		}
	}
}

// --- Euclidean ---

type euclideanSpace struct{}

func (euclideanSpace) Name() string                { return "euclidean" }
func (euclideanSpace) Dist() Distance              { return Euclidean }
func (euclideanSpace) Distance(a, b Point) float64 { return Euclidean(a, b) }

// Surrogate is the squared L2 distance: exactly the pre-Sqrt sum of
// Euclidean, so FromSurrogate(Surrogate(a, b)) == Euclidean(a, b) bit for
// bit.
func (euclideanSpace) Surrogate(a, b Point) float64    { return SquaredEuclidean(a, b) }
func (euclideanSpace) ToSurrogate(d float64) float64   { return d * d }
func (euclideanSpace) FromSurrogate(s float64) float64 { return math.Sqrt(s) }

func (euclideanSpace) DistancesTo(dst []float64, p Point, block Dataset) {
	if haveAVXKernels && len(p) >= 4 && len(p)%4 == 0 && len(block) > 0 {
		distancesToEucAVX(p, block, dst)
		return
	}
	for i, q := range block {
		dst[i] = SquaredEuclidean(p, q)
	}
}

// sqDistPair computes the squared distances from p to q1 and q2 in one
// register-blocked pass: the two pairs' accumulator chains are independent,
// so their floating-point latencies overlap, and every p[j] load serves both
// pairs. Each pair is accumulated in exactly the canonical lane order of
// SquaredEuclidean, so both results are bit-identical to the scalar calls.
func sqDistPair(p, q1, q2 Point) (float64, float64) {
	q1 = q1[:len(p)]
	q2 = q2[:len(p)]
	var a0, a1, a2, a3 float64
	var b0, b1, b2, b3 float64
	j := 0
	for ; j+3 < len(p); j += 4 {
		p0, p1, p2, p3 := p[j], p[j+1], p[j+2], p[j+3]
		d0 := p0 - q1[j]
		d1 := p1 - q1[j+1]
		d2 := p2 - q1[j+2]
		d3 := p3 - q1[j+3]
		a0 += float64(d0 * d0)
		a1 += float64(d1 * d1)
		a2 += float64(d2 * d2)
		a3 += float64(d3 * d3)
		e0 := p0 - q2[j]
		e1 := p1 - q2[j+1]
		e2 := p2 - q2[j+2]
		e3 := p3 - q2[j+3]
		b0 += float64(e0 * e0)
		b1 += float64(e1 * e1)
		b2 += float64(e2 * e2)
		b3 += float64(e3 * e3)
	}
	for ; j < len(p); j++ {
		d := p[j] - q1[j]
		a0 += float64(d * d)
		e := p[j] - q2[j]
		b0 += float64(e * e)
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
}

func (euclideanSpace) ArgNearest(p Point, set Dataset) (float64, int) {
	if haveAVXKernels && len(p) >= 4 && len(p)%4 == 0 && len(set) > 0 {
		return argNearestEucAVX(p, set)
	}
	best := math.Inf(1)
	idx := -1
	i := 0
	for ; i+1 < len(set); i += 2 {
		// Inlined sqDistPair: this is the hottest loop of the library and
		// the call overhead is measurable at benchmark scale.
		q1 := set[i][:len(p)]
		q2 := set[i+1][:len(p)]
		var a0, a1, a2, a3 float64
		var b0, b1, b2, b3 float64
		j := 0
		for ; j+3 < len(p); j += 4 {
			p0, p1, p2, p3 := p[j], p[j+1], p[j+2], p[j+3]
			d0 := p0 - q1[j]
			d1 := p1 - q1[j+1]
			d2 := p2 - q1[j+2]
			d3 := p3 - q1[j+3]
			a0 += float64(d0 * d0)
			a1 += float64(d1 * d1)
			a2 += float64(d2 * d2)
			a3 += float64(d3 * d3)
			e0 := p0 - q2[j]
			e1 := p1 - q2[j+1]
			e2 := p2 - q2[j+2]
			e3 := p3 - q2[j+3]
			b0 += float64(e0 * e0)
			b1 += float64(e1 * e1)
			b2 += float64(e2 * e2)
			b3 += float64(e3 * e3)
		}
		for ; j < len(p); j++ {
			d := p[j] - q1[j]
			a0 += float64(d * d)
			e := p[j] - q2[j]
			b0 += float64(e * e)
		}
		s1 := (a0 + a1) + (a2 + a3)
		s2 := (b0 + b1) + (b2 + b3)
		if s1 < best {
			best = s1
			idx = i
		}
		if s2 < best {
			best = s2
			idx = i + 1
		}
	}
	if i < len(set) {
		if s := SquaredEuclidean(p, set[i]); s < best {
			best = s
			idx = i
		}
	}
	return best, idx
}

func (euclideanSpace) UpdateNearest(minDist []float64, minIdx []int, c Point, newIdx int, block Dataset) float64 {
	if haveAVXKernels && len(c) >= 4 && len(c)%4 == 0 && len(block) >= 4 {
		// The kernel merges the whole blocks of four in registers (the
		// reslices are the bounds checks it does not make); the tail rows
		// take the scalar merge, in order after them.
		minDist, minIdx = minDist[:len(block)], minIdx[:len(block)]
		m := updateNearestEucAVX(c, block, minDist, minIdx, newIdx)
		for i := len(block) &^ 3; i < len(block); i++ {
			if s := SquaredEuclidean(c, block[i]); s < minDist[i] {
				minDist[i] = s
				minIdx[i] = newIdx
			}
			if minDist[i] > m {
				m = minDist[i]
			}
		}
		return m
	}
	m := math.Inf(-1)
	i := 0
	for ; i+1 < len(block); i += 2 {
		s1, s2 := sqDistPair(c, block[i], block[i+1])
		if s1 < minDist[i] {
			minDist[i] = s1
			minIdx[i] = newIdx
		}
		if minDist[i] > m {
			m = minDist[i]
		}
		if s2 < minDist[i+1] {
			minDist[i+1] = s2
			minIdx[i+1] = newIdx
		}
		if minDist[i+1] > m {
			m = minDist[i+1]
		}
	}
	if i < len(block) {
		if s := SquaredEuclidean(c, block[i]); s < minDist[i] {
			minDist[i] = s
			minIdx[i] = newIdx
		}
		if minDist[i] > m {
			m = minDist[i]
		}
	}
	return m
}

// --- Manhattan ---

type manhattanSpace struct{}

func (manhattanSpace) Name() string                    { return "manhattan" }
func (manhattanSpace) Dist() Distance                  { return Manhattan }
func (manhattanSpace) Distance(a, b Point) float64     { return Manhattan(a, b) }
func (manhattanSpace) Surrogate(a, b Point) float64    { return Manhattan(a, b) }
func (manhattanSpace) ToSurrogate(d float64) float64   { return d }
func (manhattanSpace) FromSurrogate(s float64) float64 { return s }

func (manhattanSpace) DistancesTo(dst []float64, p Point, block Dataset) {
	for i, q := range block {
		q = q[:len(p)]
		var s float64
		for j := range p {
			s += math.Abs(p[j] - q[j])
		}
		dst[i] = s
	}
}

func (manhattanSpace) ArgNearest(p Point, set Dataset) (float64, int) {
	best := math.Inf(1)
	idx := -1
	for i, q := range set {
		q = q[:len(p)]
		var s float64
		for j := range p {
			s += math.Abs(p[j] - q[j])
		}
		if s < best {
			best = s
			idx = i
		}
	}
	return best, idx
}

func (manhattanSpace) UpdateNearest(minDist []float64, minIdx []int, c Point, newIdx int, block Dataset) float64 {
	m := math.Inf(-1)
	for i, q := range block {
		q = q[:len(c)]
		var s float64
		for j := range c {
			s += math.Abs(c[j] - q[j])
		}
		if s < minDist[i] {
			minDist[i] = s
			minIdx[i] = newIdx
		}
		if minDist[i] > m {
			m = minDist[i]
		}
	}
	return m
}

// --- Chebyshev ---

type chebyshevSpace struct{}

func (chebyshevSpace) Name() string                    { return "chebyshev" }
func (chebyshevSpace) Dist() Distance                  { return Chebyshev }
func (chebyshevSpace) Distance(a, b Point) float64     { return Chebyshev(a, b) }
func (chebyshevSpace) Surrogate(a, b Point) float64    { return Chebyshev(a, b) }
func (chebyshevSpace) ToSurrogate(d float64) float64   { return d }
func (chebyshevSpace) FromSurrogate(s float64) float64 { return s }

func (chebyshevSpace) DistancesTo(dst []float64, p Point, block Dataset) {
	for i, q := range block {
		q = q[:len(p)]
		var s float64
		for j := range p {
			if d := math.Abs(p[j] - q[j]); d > s {
				s = d
			}
		}
		dst[i] = s
	}
}

func (chebyshevSpace) ArgNearest(p Point, set Dataset) (float64, int) {
	best := math.Inf(1)
	idx := -1
	for i, q := range set {
		q = q[:len(p)]
		var s float64
		for j := range p {
			if d := math.Abs(p[j] - q[j]); d > s {
				s = d
			}
		}
		if s < best {
			best = s
			idx = i
		}
	}
	return best, idx
}

func (chebyshevSpace) UpdateNearest(minDist []float64, minIdx []int, c Point, newIdx int, block Dataset) float64 {
	m := math.Inf(-1)
	for i, q := range block {
		q = q[:len(c)]
		var s float64
		for j := range c {
			if d := math.Abs(c[j] - q[j]); d > s {
				s = d
			}
		}
		if s < minDist[i] {
			minDist[i] = s
			minIdx[i] = newIdx
		}
		if minDist[i] > m {
			m = minDist[i]
		}
	}
	return m
}

// --- Angular and Cosine ---
//
// Both are monotone decreasing functions of the cosine similarity c, so the
// shared surrogate is -c (increasing with the distance). The clamping and
// zero-norm conventions replicate the scalar Angular/Cosine functions
// exactly, so FromSurrogate(Surrogate(a, b)) is bit-identical to the scalar
// call. The batched kernels compute the query point's norm once per block —
// the "precomputed norm" half of each pair's work.

// negCosine returns -cos(a, b) given the precomputed squared norm na of a,
// replicating the clamping and zero-norm conventions of Angular/Cosine:
// coincident zero vectors map to -1 (distance 0) and a single zero vector to
// 0 (the midpoint distance).
func negCosine(a, b Point, na float64) float64 {
	b = b[:len(a)]
	var dot, nb float64
	for j := range a {
		dot += float64(a[j] * b[j])
		nb += float64(b[j] * b[j])
	}
	if na == 0 || nb == 0 {
		if na == 0 && nb == 0 {
			return -1
		}
		return 0
	}
	c := dot / (math.Sqrt(na) * math.Sqrt(nb))
	if c > 1 {
		c = 1
	}
	if c < -1 {
		c = -1
	}
	return -c
}

// squaredNorm is sum a_i^2, the precomputable half of the cosine kernels.
func squaredNorm(a Point) float64 {
	var s float64
	for _, c := range a {
		s += float64(c * c)
	}
	return s
}

type angularSpace struct{}

func (angularSpace) Name() string                { return "angular" }
func (angularSpace) Dist() Distance              { return Angular }
func (angularSpace) Distance(a, b Point) float64 { return Angular(a, b) }
func (angularSpace) Surrogate(a, b Point) float64 {
	return negCosine(a, b, squaredNorm(a))
}
func (angularSpace) ToSurrogate(d float64) float64 { return -math.Cos(d * math.Pi) }
func (angularSpace) FromSurrogate(s float64) float64 {
	if math.IsInf(s, 1) {
		// The empty-set sentinel (+Inf surrogate) must stay +Inf in the true
		// domain; clamping it into Acos would report distance 1 to nothing.
		return s
	}
	if s < -1 {
		s = -1
	}
	if s > 1 {
		s = 1
	}
	return math.Acos(-s) / math.Pi
}

func (angularSpace) DistancesTo(dst []float64, p Point, block Dataset) {
	na := squaredNorm(p)
	for i, q := range block {
		dst[i] = negCosine(p, q, na)
	}
}

func (angularSpace) ArgNearest(p Point, set Dataset) (float64, int) {
	na := squaredNorm(p)
	best := math.Inf(1)
	idx := -1
	for i, q := range set {
		if s := negCosine(p, q, na); s < best {
			best = s
			idx = i
		}
	}
	return best, idx
}

func (angularSpace) UpdateNearest(minDist []float64, minIdx []int, c Point, newIdx int, block Dataset) float64 {
	nc := squaredNorm(c)
	m := math.Inf(-1)
	for i, q := range block {
		if s := negCosine(c, q, nc); s < minDist[i] {
			minDist[i] = s
			minIdx[i] = newIdx
		}
		if minDist[i] > m {
			m = minDist[i]
		}
	}
	return m
}

type cosineSpace struct{}

func (cosineSpace) Name() string                { return "cosine" }
func (cosineSpace) Dist() Distance              { return Cosine }
func (cosineSpace) Distance(a, b Point) float64 { return Cosine(a, b) }
func (cosineSpace) Surrogate(a, b Point) float64 {
	return negCosine(a, b, squaredNorm(a))
}
func (cosineSpace) ToSurrogate(d float64) float64   { return d - 1 }
func (cosineSpace) FromSurrogate(s float64) float64 { return 1 + s }

func (cosineSpace) DistancesTo(dst []float64, p Point, block Dataset) {
	na := squaredNorm(p)
	for i, q := range block {
		dst[i] = negCosine(p, q, na)
	}
}

func (cosineSpace) ArgNearest(p Point, set Dataset) (float64, int) {
	na := squaredNorm(p)
	best := math.Inf(1)
	idx := -1
	for i, q := range set {
		if s := negCosine(p, q, na); s < best {
			best = s
			idx = i
		}
	}
	return best, idx
}

func (cosineSpace) UpdateNearest(minDist []float64, minIdx []int, c Point, newIdx int, block Dataset) float64 {
	nc := squaredNorm(c)
	m := math.Inf(-1)
	for i, q := range block {
		if s := negCosine(c, q, nc); s < minDist[i] {
			minDist[i] = s
			minIdx[i] = newIdx
		}
		if minDist[i] > m {
			m = minDist[i]
		}
	}
	return m
}

// CountingSpace wraps a Space and counts surrogate evaluations across all
// kernels (one count per point-pair examined), the Space-era analogue of
// Counter. It is safe for concurrent use and is what the distance-call
// budget tests use on the native path, where no scalar Distance function is
// ever invoked.
type CountingSpace struct {
	inner Space
	evals atomic.Int64
}

// NewCountingSpace returns a counting wrapper around sp (nil selects
// EuclideanSpace).
func NewCountingSpace(sp Space) *CountingSpace {
	if sp == nil {
		sp = EuclideanSpace
	}
	return &CountingSpace{inner: sp}
}

// Evaluations returns the number of point-pair evaluations so far.
func (c *CountingSpace) Evaluations() int64 { return c.evals.Load() }

// Reset sets the evaluation counter back to zero.
func (c *CountingSpace) Reset() { c.evals.Store(0) }

func (c *CountingSpace) Name() string   { return c.inner.Name() }
func (c *CountingSpace) Dist() Distance { return c.inner.Dist() }

func (c *CountingSpace) Distance(a, b Point) float64 {
	c.evals.Add(1)
	return c.inner.Distance(a, b)
}

func (c *CountingSpace) Surrogate(a, b Point) float64 {
	c.evals.Add(1)
	return c.inner.Surrogate(a, b)
}

func (c *CountingSpace) ToSurrogate(d float64) float64   { return c.inner.ToSurrogate(d) }
func (c *CountingSpace) FromSurrogate(s float64) float64 { return c.inner.FromSurrogate(s) }

func (c *CountingSpace) DistancesTo(dst []float64, p Point, block Dataset) {
	c.evals.Add(int64(len(block)))
	c.inner.DistancesTo(dst, p, block)
}

func (c *CountingSpace) ArgNearest(p Point, set Dataset) (float64, int) {
	c.evals.Add(int64(len(set)))
	return c.inner.ArgNearest(p, set)
}

func (c *CountingSpace) UpdateNearest(minDist []float64, minIdx []int, cp Point, newIdx int, block Dataset) float64 {
	c.evals.Add(int64(len(block)))
	return c.inner.UpdateNearest(minDist, minIdx, cp, newIdx, block)
}
