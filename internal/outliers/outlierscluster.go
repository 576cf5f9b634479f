// Package outliers implements the sequential machinery for the k-center
// problem with z outliers used by the paper:
//
//   - OutliersCluster (Algorithm 1): the weighted variant of the Charikar et
//     al. (2001) greedy, parameterised by a candidate radius r and a slack
//     parameter epsHat;
//   - the radius search that drives it (binary search over candidate radii
//     combined with a geometric grid of step 1+delta, delta =
//     epsHat/(3+4*epsHat));
//   - CharikarEtAl: the original unweighted 3-approximation baseline,
//     recovered as OutliersCluster with epsHat = 0 and unit weights, searched
//     over all pairwise distances (the Figure 8 baseline).
//
// One OutliersCluster evaluation on a set T costs O(|T|^2) whatever k is: the
// ball weights of all candidates are computed once and then maintained
// incrementally as points become covered (see evaluator). A radius search is
// O(log|T|) such evaluations, O(|T|^2 log|T|) in all; ordering its |T|^2/2
// candidate radii, a radix sort, takes time linear in their number.
package outliers

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"coresetclustering/internal/metric"
)

// ErrEmptyInput is returned when the input set is empty.
var ErrEmptyInput = errors.New("outliers: empty input set")

// ErrInvalidParam is returned for non-positive k or negative z/epsHat.
var ErrInvalidParam = errors.New("outliers: invalid parameter")

// ErrNonFiniteRadius is returned when the radius search settles on a radius
// that is not finite: only a space that answers +Inf for some pairs can make
// +Inf the smallest feasible candidate.
var ErrNonFiniteRadius = errors.New("outliers: radius search settled on a non-finite radius")

// ClusterResult is the outcome of one OutliersCluster invocation at a fixed
// candidate radius.
type ClusterResult struct {
	// Centers are the selected centers (at most k of them).
	Centers metric.Dataset
	// CenterIndices are the indices of the centers within the input set.
	CenterIndices []int
	// Uncovered holds the indices (into the input set) of the points left
	// uncovered, i.e. at distance greater than (3+4*epsHat)*r from every
	// selected center.
	Uncovered []int
	// UncoveredWeight is the total weight of the uncovered points.
	UncoveredWeight int64
}

// validateClusterParams checks the preconditions of an OutliersCluster run.
func validateClusterParams(set metric.WeightedSet, k int, r, epsHat float64) error {
	if len(set) == 0 {
		return ErrEmptyInput
	}
	if k <= 0 {
		return fmt.Errorf("%w: k = %d", ErrInvalidParam, k)
	}
	if r < 0 {
		return fmt.Errorf("%w: negative radius %v", ErrInvalidParam, r)
	}
	if epsHat < 0 {
		return fmt.Errorf("%w: negative epsHat %v", ErrInvalidParam, epsHat)
	}
	return nil
}

// maxCachedMatrixSize bounds the number of points for which the full
// pairwise-distance matrix is materialised (memory is 8*n^2 bytes; 4096
// points is 128 MiB). Larger sets run the same evaluator on rows recomputed
// into a scratch buffer each time one is needed.
const maxCachedMatrixSize = 4096

// distRows serves the rows of the symmetric n×n matrix of pairwise distances
// of a point set, with a zero diagonal. The radius search evaluates
// OutliersCluster many times over the same set, so up to maxCachedMatrixSize
// points the matrix is computed once and a row is a view into it; beyond
// that a row is recomputed on request. Values are always in the TRUE
// distance domain: the covering thresholds of Algorithm 1 are true radii,
// and converting out of the space's surrogate as a row is produced keeps the
// conversion out of the evaluator's loops. Both sources produce each row
// with the space's batched DistancesTo kernel.
//
// Precondition: the space is symmetric to the last bit, d(a, b) == d(b, a) as
// floats, as every built-in kernel is. The evaluator reads d(t, v) from row t
// and, later, the same distance from row v. The cached matrix mirrors one
// evaluation into both cells, so it is symmetric whatever the kernel; on-demand
// rows are only as symmetric as the kernel, and then hold the matrix's values
// bit for bit.
type distRows struct {
	sp     metric.Space
	pts    metric.Dataset
	matrix []float64 // row-major n×n, nil above maxCachedMatrixSize
}

// newDistRows picks the row source for the points: the cached matrix, built
// on the engine's workers, or on-demand rows.
func newDistRows(eng metric.Engine, sp metric.Space, pts metric.Dataset) *distRows {
	d := &distRows{sp: sp, pts: pts}
	if len(pts) <= maxCachedMatrixSize {
		d.matrix = pairwiseMatrix(eng, sp, pts)
	}
	return d
}

// row returns row i: a read-only view into the cached matrix, or buf (of
// length n) filled with the distances from point i.
func (d *distRows) row(i int, buf []float64) []float64 {
	n := len(d.pts)
	if d.matrix != nil {
		return d.matrix[i*n : (i+1)*n]
	}
	d.sp.DistancesTo(buf, d.pts[i], d.pts)
	for j, s := range buf {
		buf[j] = d.sp.FromSurrogate(s)
	}
	buf[i] = 0
	return buf
}

// pairwiseMatrix precomputes the full distance matrix of the points. The
// worker owning row i runs one batched DistancesTo over the points after i,
// converts the row out of the surrogate domain in place, and writes both
// mirror cells, so every cell has exactly one writer (no race) and the number
// of distance evaluations, n*(n-1)/2, is the same for any worker count. To
// balance the triangular workload, the chunked index v covers the row pair
// (v, n-1-v): the two rows together always hold n-1 pairs.
func pairwiseMatrix(eng metric.Engine, sp metric.Space, pts metric.Dataset) []float64 {
	n := len(pts)
	m := make([]float64, n*n)
	fillRow := func(i int) {
		row := m[i*n+i+1 : (i+1)*n]
		sp.DistancesTo(row, pts[i], pts[i+1:])
		for j, s := range row {
			d := sp.FromSurrogate(s)
			row[j] = d
			m[(i+1+j)*n+i] = d
		}
	}
	if eng.Sequential(n * (n - 1) / 2) {
		for i := 0; i < n; i++ {
			fillRow(i)
		}
	} else {
		eng.ForEachChunkCost((n+1)/2, n, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				fillRow(v)
				if mirror := n - 1 - v; mirror != v {
					fillRow(mirror)
				}
			}
		})
	}
	return m
}

// candidateRadii returns the sorted distinct positive pairwise distances of
// the points. These are the candidate radii of the search: the behaviour of
// OutliersCluster changes only when r crosses a value at which some pairwise
// distance enters or leaves one of the two balls, and searching the pairwise
// distances themselves is the protocol of the original Charikar et al.
// algorithm that the paper builds on. With a cached matrix the distances are
// its upper triangle (no distance is evaluated a second time); otherwise they
// come from the same batched kernel. The v > 0 test that keeps a distance also
// drops NaN, and ordering what is kept takes time linear in its number (see
// sortPositive).
//
// Peak memory is two buffers of n(n-1)/2 values: the kept distances and the
// sort's scratch. At maxCachedMatrixSize points each is 64 MiB, so the peak is
// 256 MiB with the 128 MiB matrix.
func (d *distRows) candidateRadii() []float64 {
	n := len(d.pts)
	if n < 2 {
		return nil
	}
	var ds []float64
	if d.matrix != nil {
		ds = make([]float64, n*(n-1)/2)
		kept := 0
		for i := 0; i < n-1; i++ {
			for _, v := range d.matrix[i*n+i+1 : (i+1)*n] {
				ds[kept] = v
				if v > 0 {
					kept++
				}
			}
		}
		ds = ds[:kept]
	} else {
		ds = slices.DeleteFunc(metric.PairwiseDistancesIn(d.sp, d.pts), func(v float64) bool { return !(v > 0) })
	}
	ds = sortPositive(ds, make([]float64, len(ds)))
	out := ds[:0]
	for _, v := range ds {
		if len(out) == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// sortPositive sorts a, whose values are all positive (+Inf included, NaN
// not), into ascending order and returns it or buf, a scratch slice of the same
// length, whichever holds the result. Positive doubles order as their IEEE-754
// bit patterns do, so this is an LSD radix sort on math.Float64bits, one byte
// per pass: a histogram pass counts all eight digits at once, and a pass whose
// digit is the same in every key moves nothing and is skipped. Distances in a
// few binades share their sign and high exponent bits, so the top byte's pass
// is usually one of those.
func sortPositive(a, buf []float64) []float64 {
	if len(a) < 2 {
		return a
	}
	var counts [8][256]int
	for _, v := range a {
		// Unrolled: a loop over the eight digits here makes the sort a
		// third slower.
		k := math.Float64bits(v)
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	for p := range counts {
		c := &counts[p]
		shift := 8 * p
		if c[byte(math.Float64bits(a[0])>>shift)] == len(a) {
			continue
		}
		sum := 0
		for i, x := range c {
			c[i] = sum
			sum += x
		}
		for _, v := range a {
			digit := byte(math.Float64bits(v) >> shift)
			buf[c[digit]] = v
			c[digit]++
		}
		a, buf = buf, a
	}
	return a
}

// evaluator runs OutliersCluster on one set at one radius after another,
// reusing its buffers: the radius search is a sequence of probes on the same
// rows, and only the last one's clustering is ever materialised.
//
// A probe computes the ball weight of every candidate once, from the rows,
// and from then on keeps them current: when a point v becomes covered, w(v)
// leaves the ball weight of exactly the candidates t with d(v, t) <=
// (1+2*epsHat)*r, which is one more walk of row v. That walk takes d(v, t) for
// the d(t, v) the first pass read in row t: see the precondition on distRows.
// A point is covered at most once per probe, so a probe reads at most 2|T|+k
// rows — O(|T|^2) instead of the k|T|^2 of recomputing every ball for every
// center. Weights are int64 and the sums exact, so the maintained values
// equal the recomputed ones and the selected centers are those of the
// textbook greedy (referenceCluster in the tests).
type evaluator struct {
	eng     metric.Engine
	rows    *distRows
	set     metric.WeightedSet
	weights []int64
	total   int64
	k       int
	epsHat  float64

	// State of the latest probe.
	uncovered []bool
	ballW     []int64 // uncovered weight within (1+2*epsHat)*r of each point
	centers   []int
	covered   []int // points covered by the latest center
	// rowBufs holds one buffer for on-demand rows per chunk of the parallel
	// ball-weight pass; views into the cached matrix never touch them.
	rowBufs [][]float64
}

func newEvaluator(eng metric.Engine, rows *distRows, set metric.WeightedSet, k int, epsHat float64) *evaluator {
	n := len(set)
	e := &evaluator{
		eng:       eng,
		rows:      rows,
		set:       set,
		weights:   make([]int64, n),
		k:         k,
		epsHat:    epsHat,
		uncovered: make([]bool, n),
		ballW:     make([]int64, n),
		centers:   make([]int, 0, min(k, n)),
		covered:   make([]int, 0, n),
		rowBufs:   make([][]float64, eng.NumChunksCost(n, n)),
	}
	for i, wp := range set {
		e.weights[i] = wp.W
		e.total += wp.W
	}
	for i := range e.rowBufs {
		e.rowBufs[i] = make([]float64, n)
	}
	return e
}

// probe runs OutliersCluster at radius r and returns the weight it leaves
// uncovered; the clustering itself stays in the evaluator until the next
// probe (see result). When rows are computed on demand the first pass over
// them is chunked across the engine's workers, one writer per ball weight;
// everything else is sequential, so the outcome does not depend on the worker
// count.
func (e *evaluator) probe(r float64) int64 {
	n := len(e.set)
	// float64(...) rounds the product on its own, so no architecture fuses
	// it into the sum and the radii are the same bits everywhere.
	ballRadius := (1 + float64(2*e.epsHat)) * r
	coverRadius := (3 + float64(4*e.epsHat)) * r
	for i := range e.uncovered {
		e.uncovered[i] = true
	}
	e.centers = e.centers[:0]
	remaining, remainingW := n, e.total

	ballWeights := func(chunk, lo, hi int) {
		buf := e.rowBufs[chunk]
		for t := lo; t < hi; t++ {
			row := e.rows.row(t, buf)
			weights := e.weights[:len(row)]
			var w int64
			for v, d := range row {
				// A select, not a branch: whether a cell falls inside the ball
				// is close to random for the predictor, and this form compiles
				// to a conditional move. !(d <= r) rather than d > r keeps a
				// NaN distance outside every ball.
				wv := weights[v]
				if !(d <= ballRadius) {
					wv = 0
				}
				w += wv
			}
			e.ballW[t] = w
		}
	}
	// Only on-demand rows cost distance evaluations, the work the engine
	// chunks. The pass over cached cells is bound by memory, not by cores.
	if e.rows.matrix != nil || e.eng.Sequential(n*n) {
		ballWeights(0, 0, n)
	} else {
		e.eng.ForEachChunkCost(n, n, ballWeights)
	}

	for len(e.centers) < e.k && remaining > 0 {
		// Pick the point (covered or not) whose (1+2eps)r-ball has maximum
		// aggregate uncovered weight; the lowest index wins ties.
		best, bestW := -1, int64(-1)
		for t, w := range e.ballW {
			if w > bestW {
				best, bestW = t, w
			}
		}
		if best < 0 {
			break
		}
		e.centers = append(e.centers, best)
		// Remove from the uncovered set everything within (3+4eps)r of the
		// new center.
		e.covered = e.covered[:0]
		for v, d := range e.rows.row(best, e.rowBufs[0]) {
			if e.uncovered[v] && d <= coverRadius {
				e.uncovered[v] = false
				e.covered = append(e.covered, v)
				remainingW -= e.weights[v]
			}
		}
		remaining -= len(e.covered)
		if remaining == 0 || len(e.centers) == e.k {
			break // no further selection reads the ball weights
		}
		for _, v := range e.covered {
			w := e.weights[v]
			row := e.rows.row(v, e.rowBufs[0])
			ballW := e.ballW[:len(row)]
			for t, d := range row {
				dec := w
				if !(d <= ballRadius) {
					dec = 0
				}
				ballW[t] -= dec
			}
		}
	}
	return remainingW
}

// result materialises the clustering of the latest probe.
func (e *evaluator) result() *ClusterResult {
	res := &ClusterResult{CenterIndices: slices.Clone(e.centers)}
	for _, c := range e.centers {
		res.Centers = append(res.Centers, e.set[c].P)
	}
	for i, u := range e.uncovered {
		if u {
			res.Uncovered = append(res.Uncovered, i)
			res.UncoveredWeight += e.weights[i]
		}
	}
	return res
}

// delta returns the multiplicative radius-search tolerance used by the paper,
// delta = epsHat / (3 + 4*epsHat). For epsHat = 0 it returns 0 (exact search).
func delta(epsHat float64) float64 {
	if epsHat <= 0 {
		return 0
	}
	return epsHat / (3 + float64(4*epsHat)) // float64: see probe
}

// SolveResult is the outcome of a full radius search plus final clustering.
type SolveResult struct {
	// Centers are the final (at most k) centers.
	Centers metric.Dataset
	// CenterIndices are the indices of the centers within the input set.
	CenterIndices []int
	// Radius is the candidate radius the search settled on (r~min in the
	// paper's notation).
	Radius float64
	// UncoveredWeight is the aggregate weight left uncovered at that radius;
	// it is at most z by construction.
	UncoveredWeight int64
	// Evaluations is the number of OutliersCluster invocations performed by
	// the search; reported for the radius-search ablation.
	Evaluations int
}

// SearchStrategy selects how the radius search enumerates candidate radii.
type SearchStrategy int

const (
	// SearchBinaryGeometric is the paper's strategy: a binary search over the
	// sorted pairwise distances of the input, refined by a geometric search of
	// step (1+delta) between the last infeasible and first feasible distance.
	SearchBinaryGeometric SearchStrategy = iota
	// SearchExhaustive evaluates every candidate pairwise distance in
	// increasing order and stops at the first feasible one. It is exact but
	// needs O(|T|^2) clusterings in the worst case; used by the
	// CharikarEtAl-style baseline and by the radius-search ablation.
	SearchExhaustive
)

// SolveIn finds (an estimate of) the minimum radius r such that
// OutliersCluster(set, k, r, epsHat) leaves uncovered weight at most z, and
// returns the clustering computed at that radius. The search follows the
// given strategy; SearchBinaryGeometric reproduces the paper's second-round
// procedure. The distance evaluations — the pairwise-matrix build or, above
// maxCachedMatrixSize points, the ball-weight pass of every OutliersCluster
// evaluation — are chunked across workers goroutines (<= 0 selects one per
// CPU; 1 keeps the fully sequential path, which the CharikarEtAl baselines
// pin so their reported running times reflect a truly sequential schedule).
// The result is bit-identical for any worker count.
func SolveIn(sp metric.Space, set metric.WeightedSet, k int, z int64, epsHat float64, strategy SearchStrategy, workers int) (*SolveResult, error) {
	if err := validateClusterParams(set, k, 0, epsHat); err != nil {
		return nil, err
	}
	if z < 0 {
		return nil, fmt.Errorf("%w: z = %d", ErrInvalidParam, z)
	}
	if sp == nil {
		sp = metric.EuclideanSpace
	}
	eng := metric.NewEngine(workers)
	res := solve(newEvaluator(eng, newDistRows(eng, sp, set.Points()), set, k, epsHat), z, strategy)
	if math.IsInf(res.Radius, 0) || math.IsNaN(res.Radius) {
		return nil, fmt.Errorf("%w: %v after %d evaluations", ErrNonFiniteRadius, res.Radius, res.Evaluations)
	}
	return res, nil
}

// solve runs the radius search on the evaluator's set. Probes only report
// the uncovered weight; the clustering is materialised once, from the state
// left by the last probe, which is always the one at the chosen radius.
func solve(ev *evaluator, z int64, strategy SearchStrategy) *SolveResult {
	evals := 0
	feasible := func(r float64) bool {
		evals++
		return ev.probe(r) <= z
	}

	// Radius 0 first. It is feasible in the degenerate cases: k >= |T| (every
	// point can be its own center), or the total weight beyond the k heaviest
	// locations is at most z. And when there is no candidate radius at all —
	// every point coincides — its clustering is the answer whether or not it
	// meets the budget.
	chosen := 0.0
	if !feasible(0) {
		if candidates := ev.rows.candidateRadii(); len(candidates) > 0 {
			chosen = search(candidates, ev.epsHat, strategy, feasible)
		}
	}

	res := ev.result()
	return &SolveResult{
		Centers:         res.Centers,
		CenterIndices:   res.CenterIndices,
		Radius:          chosen,
		UncoveredWeight: res.UncoveredWeight,
		Evaluations:     evals,
	}
}

// search returns the radius the strategy settles on among the sorted
// candidates; its last call of feasible is at that radius. feasible is a
// pure function of the radius, and the largest candidate — the diameter, at
// which the first center covers everything — always satisfies it.
func search(candidates []float64, epsHat float64, strategy SearchStrategy, feasible func(r float64) bool) float64 {
	last := len(candidates) - 1
	if strategy == SearchExhaustive {
		for _, r := range candidates {
			if feasible(r) {
				return r
			}
		}
		return candidates[last]
	}

	// Binary search over the sorted candidate distances for the smallest
	// feasible one. The greedy is not strictly monotone in r, but as in the
	// paper the search treats it as such; the final result is always
	// validated by an explicit clustering at the chosen radius.
	lo, hi := 0, last
	firstFeasible := last
	for lo <= hi {
		mid := (lo + hi) / 2
		if feasible(candidates[mid]) {
			firstFeasible = mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	rHi := candidates[firstFeasible]
	rLo := 0.0
	if firstFeasible > 0 {
		rLo = candidates[firstFeasible-1]
	}
	chosen := rHi
	// Geometric refinement with step (1+delta) between rLo and rHi: walk up
	// from rLo multiplying by (1+delta) and keep the first feasible value.
	// This reproduces the (1+delta) multiplicative tolerance of the paper
	// without materialising every distance. With rHi = +Inf every finite
	// distance lies inside both balls at any r >= rLo, as at the infeasible
	// rLo, so the walk is skipped: it could only step towards overflow.
	if step := delta(epsHat); step > 0 && rLo > 0 && rHi > rLo*(1+step) && !math.IsInf(rHi, 1) {
		for r := rLo * (1 + step); r < rHi; r *= 1 + step {
			if feasible(r) {
				chosen = r
				break
			}
		}
	}
	feasible(chosen)
	return chosen
}

// CharikarEtAl runs the original sequential 3-approximation algorithm for the
// k-center problem with z outliers on an unweighted point set: unit weights,
// epsHat = 0, and an exhaustive search over all pairwise distances (smallest
// feasible first). This is the CHARIKARETAL baseline of Figure 8; its running
// time is O(|S|^2 log|S|), the O(log|S|) probes of O(|S|^2) each after
// ordering the candidate radii in time linear in their number, and it is only
// meant for datasets of at most a few tens of thousands of points.
func CharikarEtAl(sp metric.Space, points metric.Dataset, k, z int) (*SolveResult, error) {
	if z < 0 {
		return nil, fmt.Errorf("%w: z = %d", ErrInvalidParam, z)
	}
	set := metric.Unweighted(points)
	return SolveIn(sp, set, k, int64(z), 0, SearchBinaryGeometric, 1)
}

// CharikarEtAlExhaustive is CharikarEtAl with the exhaustive (linear-scan)
// radius search. It is the most faithful rendition of the original algorithm
// and the slowest; the radius-search ablation benchmark compares the two.
func CharikarEtAlExhaustive(sp metric.Space, points metric.Dataset, k, z int) (*SolveResult, error) {
	if z < 0 {
		return nil, fmt.Errorf("%w: z = %d", ErrInvalidParam, z)
	}
	set := metric.Unweighted(points)
	return SolveIn(sp, set, k, int64(z), 0, SearchExhaustive, 1)
}
