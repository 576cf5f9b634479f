// Package gmm implements Gonzalez' greedy farthest-point algorithm (GMM) for
// the k-center problem, both in its classic fixed-k form and in the
// incremental form the paper uses to grow composable coresets: keep selecting
// centers beyond k until the residual radius drops below a target fraction of
// the k-center radius.
//
// GMM is a 2-approximation for k-center (Gonzalez, 1985) and, crucially for
// the coreset constructions, Lemma 1 of the paper shows that when run on a
// subset X of S it still guarantees r_T(X) <= 2 * r*_k(S).
//
// The textbook loop evaluates every new center against all n points. On
// spaces that declare the metric.Pruner capability the implementation skips,
// exactly, every evaluation the triangle inequality decides in advance (see
// pruned.go): same centers, radii and assignment, bit for bit, for a fraction
// of the evaluations once the centers resolve the input's structure.
package gmm

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"coresetclustering/internal/metric"
)

// ErrEmptyInput is returned when the input dataset is empty.
var ErrEmptyInput = errors.New("gmm: empty input dataset")

// ErrInvalidK is returned when k is not positive.
var ErrInvalidK = errors.New("gmm: k must be positive")

// ErrNonFiniteDistance is returned when a selected center is left at +Inf or
// NaN from the centers, itself included: the space answered a non-finite
// d(c, c), where 0 is due, and the farthest point would be a center again. No
// built-in space does that on the admitted domain (|c| <= 2^500). A point that
// only overflows against the others (+Inf to them, 0 to itself) is still the
// farthest point, and the run goes on.
var ErrNonFiniteDistance = errors.New("gmm: a center is at a non-finite distance from the centers, itself included")

// Result describes the outcome of a GMM run.
type Result struct {
	// Centers are the selected centers, in selection order (the first center
	// is the seed, each subsequent one is the point farthest from the
	// previously selected set).
	Centers metric.Dataset
	// CenterIndices are the indices of the centers within the input dataset,
	// in the same order as Centers.
	CenterIndices []int
	// Radius is the radius of the input with respect to Centers, i.e.
	// max_s d(s, Centers).
	Radius float64
	// RadiusAtK is the radius after the first k centers were selected. For a
	// plain Run it equals Radius; for incremental runs it is the reference
	// value the stopping rule compares against.
	RadiusAtK float64
	// Assignment maps every input point to the index (into Centers) of its
	// closest center.
	Assignment []int
	// Evaluations is the number of surrogate distance evaluations the run
	// performed, the center-to-center ones of the pruned phase and of the
	// probes that decide to enter it included. The textbook loop needs
	// len(Centers) * len(points).
	Evaluations int64
	// PrunedAt is the number of centers already selected when the run left
	// the dense phase for the pruned one; 0 means it never did.
	PrunedAt int
}

// Runner bundles the metric space with the parallelism degree of the
// distance engine. Every per-iteration pass of the greedy (the dense phase's
// nearest-center cache update, which finds the farthest point in the same
// pass, and the pruned phase's survivor evaluation) is chunked across Workers
// goroutines and runs on the space's batched kernels in the surrogate domain;
// results are bit-identical to the sequential path for any worker count (see
// the determinism contract in internal/metric/parallel.go).
type Runner struct {
	// Space is the metric space: its batched kernels and comparison-domain
	// surrogate drive every inner loop. nil defaults to Euclidean.
	Space metric.Space
	// Workers is the parallelism degree: <= 0 selects one worker per CPU,
	// 1 forces the sequential path.
	Workers int
}

// Run executes the classic GMM algorithm selecting exactly k centers
// (or len(points) centers if k >= len(points)). The first center is
// points[seedIndex]; pass 0 for the conventional deterministic choice.
func (r Runner) Run(points metric.Dataset, k int, seedIndex int) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrEmptyInput
	}
	if k <= 0 {
		return nil, ErrInvalidK
	}
	if k > len(points) {
		k = len(points)
	}
	if seedIndex < 0 || seedIndex >= len(points) {
		return nil, fmt.Errorf("gmm: seed index %d out of range [0,%d)", seedIndex, len(points))
	}
	st := newState(r, points, seedIndex)
	for st.size() < k {
		if !st.addFarthest() {
			break
		}
	}
	if st.err != nil {
		return nil, st.err
	}
	return st.result(k), nil
}

// RunIncremental executes GMM incrementally: it always selects at least
// minCenters centers and keeps adding centers until the residual radius is at
// most stopFraction times the radius attained after the first minCenters
// centers (the paper's stopping rule with stopFraction = eps/2), or until the
// dataset is exhausted, or until maxCenters centers have been selected
// (maxCenters <= 0 means unbounded).
//
// This is the first-round computation of the MapReduce coreset construction:
// minCenters = k (or k+z), stopFraction = eps/2.
func (r Runner) RunIncremental(points metric.Dataset, minCenters int, stopFraction float64, maxCenters int, seedIndex int) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrEmptyInput
	}
	if minCenters <= 0 {
		return nil, ErrInvalidK
	}
	if stopFraction < 0 {
		return nil, fmt.Errorf("gmm: negative stop fraction %v", stopFraction)
	}
	if seedIndex < 0 || seedIndex >= len(points) {
		return nil, fmt.Errorf("gmm: seed index %d out of range [0,%d)", seedIndex, len(points))
	}
	if minCenters > len(points) {
		minCenters = len(points)
	}
	st := newState(r, points, seedIndex)
	for st.size() < minCenters {
		if !st.addFarthest() {
			break
		}
	}
	radiusAtMin := st.currentRadius()
	target := stopFraction * radiusAtMin
	for st.currentRadius() > target {
		if maxCenters > 0 && st.size() >= maxCenters {
			break
		}
		if !st.addFarthest() {
			break
		}
	}
	if st.err != nil {
		return nil, st.err
	}
	res := st.result(minCenters)
	res.RadiusAtK = radiusAtMin
	return res, nil
}

// RunToSize executes GMM until exactly targetSize centers have been selected
// (or the dataset is exhausted), recording the radius attained after the first
// refCenters centers. This mirrors how the paper's experiments size coresets
// directly (tau = mu*k or mu*(k+z)) instead of going through the precision
// parameter eps.
func (r Runner) RunToSize(points metric.Dataset, targetSize, refCenters, seedIndex int) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrEmptyInput
	}
	if targetSize <= 0 {
		return nil, ErrInvalidK
	}
	if refCenters <= 0 {
		refCenters = targetSize
	}
	if seedIndex < 0 || seedIndex >= len(points) {
		return nil, fmt.Errorf("gmm: seed index %d out of range [0,%d)", seedIndex, len(points))
	}
	if targetSize > len(points) {
		targetSize = len(points)
	}
	if refCenters > len(points) {
		refCenters = len(points)
	}
	st := newState(r, points, seedIndex)
	radiusAtRef := math.NaN()
	for st.size() < targetSize {
		if st.size() == refCenters && math.IsNaN(radiusAtRef) {
			radiusAtRef = st.currentRadius()
		}
		if !st.addFarthest() {
			break
		}
	}
	if st.err != nil {
		return nil, st.err
	}
	if math.IsNaN(radiusAtRef) {
		radiusAtRef = st.currentRadius()
	}
	res := st.result(refCenters)
	res.RadiusAtK = radiusAtRef
	return res, nil
}

// state maintains, for every input point, the SURROGATE distance to the
// closest center selected so far. It starts in the DENSE phase: each new
// center costs n distance evaluations (the standard O(k*n) implementation of
// GMM) — the cache is only ever min-merged against the single new center per
// round via the space's batched UpdateNearest kernel, never rebuilt by a full
// rescan. A dense round is one O(n) pass on the parallel distance engine: the
// kernel merges the caches and returns their maximum, and each chunk then
// finds the first point holding it, so the next farthest point is known when
// the update returns; per-point cache entries are only ever written by the
// worker owning that point's chunk, so the caches stay coherent without
// locks, and all reductions follow the engine's deterministic ordering. On a
// space with the metric.Pruner capability the state may move, once and for
// good, to the PRUNED phase of pruned.go, which evaluates only the points a
// new center can capture; both phases leave the same bits in every field
// below. Radii are converted out of the surrogate domain once per selection
// round (one FromSurrogate per reported radius, never one per evaluation).
type state struct {
	sp       metric.Space
	eng      metric.Engine
	points   metric.Dataset
	centers  []int     // indices into points, in selection order
	minDist  []float64 // minDist[i] = surrogate d(points[i], current centers)
	closest  []int     // closest[i] = index into centers of the closest center
	radii    []float64 // radii[j] = TRUE radius after j+1 centers were selected
	isCenter []bool    // isCenter[i] = points[i] was selected
	cursor   int       // every point before cursor is a center (firstNonCenter)
	evals    int64     // surrogate evaluations performed so far
	err      error     // ErrNonFiniteDistance once a center's own cache is +Inf or NaN

	// The farthest point after the last update, lowest index on ties, and
	// its surrogate: both phases leave it here, so no round scans the caches
	// a second time.
	nextFar     int
	nextFarDist float64

	pruner // the pruned phase and the probe that enters it
}

func newState(r Runner, points metric.Dataset, seedIndex int) *state {
	sp := r.Space
	if sp == nil {
		sp = metric.EuclideanSpace
	}
	st := &state{
		sp:       sp,
		eng:      metric.NewEngine(r.Workers),
		points:   points,
		minDist:  make([]float64, len(points)),
		closest:  make([]int, len(points)),
		isCenter: make([]bool, len(points)),
	}
	for i := range st.minDist {
		st.minDist[i] = math.Inf(1) // "no center yet"
	}
	st.initPruner()
	st.add(seedIndex)
	return st
}

// add makes points[idx] the next center: it min-merges the caches against it
// — in the phase the state is in — and records the new TRUE radius. A center
// its own update leaves at +Inf or NaN sets st.err, which ends the run.
func (st *state) add(idx int) {
	c := st.points[idx]
	newIdx := len(st.centers)
	var m float64
	if st.enterOrStayPruned(c) {
		m = st.updatePruned(c, newIdx)
	} else {
		m = st.updateCaches(c, newIdx)
	}
	if v := st.minDist[idx]; math.IsInf(v, 1) || math.IsNaN(v) {
		st.err = ErrNonFiniteDistance
	}
	st.centers = append(st.centers, idx)
	st.isCenter[idx] = true
	radius := 0.0
	if !math.IsInf(m, -1) {
		radius = st.sp.FromSurrogate(m)
	}
	st.radii = append(st.radii, radius)
}

// updateCaches is the dense update: it min-merges the caches against a newly
// selected center c (with index newIdx into centers) over ALL points, leaves
// the farthest point in nextFar and returns the new maximum of minDist. The
// pass is chunked across the engine's workers; a chunk's farthest point is
// the first of its own points whose cache equals the maximum the kernel
// returned, and the chunks reduce in order with a strict comparison, so the
// lowest index wins ties as in a sequential left-to-right scan (max is
// associative and commutative: the same float for any chunking).
func (st *state) updateCaches(c metric.Point, newIdx int) float64 {
	n := len(st.points)
	st.evals += int64(n)
	if st.eng.Sequential(n) {
		m := st.sp.UpdateNearest(st.minDist, st.closest, c, newIdx, st.points)
		st.nextFar, st.nextFarDist = slices.Index(st.minDist, m), m
		return m
	}
	nc := st.eng.NumChunks(n)
	maxes, args := make([]float64, nc), make([]int, nc)
	st.eng.ForEachChunk(n, func(chunk, lo, hi int) {
		m := st.sp.UpdateNearest(st.minDist[lo:hi], st.closest[lo:hi], c, newIdx, st.points[lo:hi])
		maxes[chunk], args[chunk] = m, lo+slices.Index(st.minDist[lo:hi], m)
	})
	st.nextFar, st.nextFarDist = -1, math.Inf(-1)
	for chunk, v := range maxes {
		if v > st.nextFarDist {
			st.nextFar, st.nextFarDist = args[chunk], v
		}
	}
	return st.nextFarDist
}

func (st *state) size() int { return len(st.centers) }

func (st *state) currentRadius() float64 { return st.radii[len(st.radii)-1] }

// addFarthest selects the point farthest from the current center set as the
// next center and updates the cached distances. It returns false when every
// point is already a center (radius 0 with all points covered exactly) or a
// round has failed (st.err), in which case no new center is added.
func (st *state) addFarthest() bool {
	if st.err != nil || len(st.centers) >= len(st.points) {
		return false
	}
	// The farthest point, lowest index on ties: the last update left it
	// (dense: found in the same pass; pruned: read off the summaries).
	far, farDist := st.nextFar, st.nextFarDist
	if far < 0 {
		return false
	}
	if st.sp.FromSurrogate(farDist) == 0 {
		// Every remaining point coincides with an existing center; adding
		// duplicates would not decrease the radius. Still allow growth so
		// callers asking for exactly k centers get k of them.
		far = st.firstNonCenter()
		if far < 0 {
			return false
		}
	}
	st.add(far)
	return true
}

// firstNonCenter returns the index of the first point that is not already a
// center, or -1 if all points are centers. Centers are never unselected, so
// the scan resumes where the previous call stopped: O(n) over a whole run.
func (st *state) firstNonCenter() int {
	for st.cursor < len(st.points) && st.isCenter[st.cursor] {
		st.cursor++
	}
	if st.cursor == len(st.points) {
		return -1
	}
	return st.cursor
}

// result snapshots the state into a Result. refCenters selects which entry of
// the radius history populates RadiusAtK.
func (st *state) result(refCenters int) *Result {
	centers := make(metric.Dataset, len(st.centers))
	indices := make([]int, len(st.centers))
	for i, ci := range st.centers {
		centers[i] = st.points[ci]
		indices[i] = ci
	}
	assignment := make([]int, len(st.points))
	copy(assignment, st.closest)
	radiusAtK := st.currentRadius()
	if refCenters >= 1 && refCenters <= len(st.radii) {
		radiusAtK = st.radii[refCenters-1]
	}
	return &Result{
		Centers:       centers,
		CenterIndices: indices,
		Radius:        st.currentRadius(),
		RadiusAtK:     radiusAtK,
		Assignment:    assignment,
		Evaluations:   st.evals,
		PrunedAt:      st.prunedAt,
	}
}

// BruteForceOptimalRadius computes the exact optimal k-center radius of a
// small dataset by exhaustive search over all k-subsets of candidate centers.
// It is exponential in k and intended exclusively for tests that validate the
// approximation guarantees on tiny instances. It evaluates through the
// space's scalar function, sp.Dist(), so it stays independent of the batched
// kernels it checks.
func BruteForceOptimalRadius(sp metric.Space, points metric.Dataset, k int) (float64, error) {
	dist := sp.Dist()
	n := len(points)
	if n == 0 {
		return 0, ErrEmptyInput
	}
	if k <= 0 {
		return 0, ErrInvalidK
	}
	if k >= n {
		return 0, nil
	}
	best := math.Inf(1)
	idx := make([]int, k)
	var rec func(start, pos int)
	rec = func(start, pos int) {
		if pos == k {
			centers := make(metric.Dataset, k)
			for i, ci := range idx {
				centers[i] = points[ci]
			}
			if r := metric.Radius(dist, points, centers); r < best {
				best = r
			}
			return
		}
		for i := start; i < n; i++ {
			idx[pos] = i
			rec(i+1, pos+1)
		}
	}
	rec(0, 0)
	return best, nil
}

// BruteForceOptimalRadiusWithOutliers computes the exact optimal radius of the
// k-center problem with z outliers on a small dataset by exhaustive search
// over all k-subsets of centers, discarding the z farthest points for each
// candidate set. Exponential in k; tests only. Like BruteForceOptimalRadius
// it evaluates through sp.Dist().
func BruteForceOptimalRadiusWithOutliers(sp metric.Space, points metric.Dataset, k, z int) (float64, error) {
	dist := sp.Dist()
	n := len(points)
	if n == 0 {
		return 0, ErrEmptyInput
	}
	if k <= 0 {
		return 0, ErrInvalidK
	}
	if z < 0 {
		z = 0
	}
	if k+z >= n {
		return 0, nil
	}
	best := math.Inf(1)
	idx := make([]int, k)
	var rec func(start, pos int)
	rec = func(start, pos int) {
		if pos == k {
			centers := make(metric.Dataset, k)
			for i, ci := range idx {
				centers[i] = points[ci]
			}
			if r := metric.RadiusExcluding(dist, points, centers, z); r < best {
				best = r
			}
			return
		}
		for i := start; i < n; i++ {
			idx[pos] = i
			rec(i+1, pos+1)
		}
	}
	rec(0, 0)
	return best, nil
}
