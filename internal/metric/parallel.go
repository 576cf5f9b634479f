package metric

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"
)

// This file implements the parallel distance engine: blocked kernels for the
// distance-dominated hot paths (nearest-center assignment, radius, farthest
// scans) that chunk the point set across a bounded set of workers. Since the
// metric-space layer v2 the per-chunk inner loops are the batched kernels of
// a Space (see space.go) rather than per-pair Distance closures, and all
// comparisons inside a kernel happen in the space's surrogate domain; the
// conversion back to true distances (FromSurrogate) is applied once per
// reported value.
//
// Determinism contract: every kernel returns results that are bit-identical
// to its sequential counterpart, regardless of the worker count.
// Parallelism is only ever applied ACROSS independent items (points, or
// contiguous chunks of a scan); the loop over centers for one point stays
// sequential, so each per-item value is computed by exactly the same sequence
// of floating-point operations as in the sequential path. Reductions over
// chunks (min/max with argument) are performed in ascending chunk order with
// strict comparisons, so ties resolve to the lowest index exactly as a
// sequential left-to-right scan does. Additionally, for the built-in spaces
// whose surrogate is an exact monotone prefix of the true distance
// (Euclidean, Manhattan, Chebyshev), the reported radii are bit-identical
// between the native Space path and the SpaceFromDistance adapter path.

// SequentialCutoff is the number of distance evaluations below which the
// kernels fall back to the plain sequential loops, so small inputs pay no
// goroutine overhead. One distance evaluation costs a few nanoseconds at the
// dimensionalities of the paper's experiments (4-6 ns per Euclidean pair at
// d = 16 on the row kernels, measured on a 2-core x86-64 host), while a
// fork-join of a few goroutines costs a few microseconds; 8192 evaluations,
// some tens of microseconds of work, keep the scheduling overhead near 10% in
// the worst case.
const SequentialCutoff = 8192

// minChunk is the smallest per-worker chunk the engine will create; finer
// slicing only adds scheduling overhead.
const minChunk = 256

// Engine executes the blocked distance kernels on up to Workers() concurrent
// goroutines. The zero value uses one worker per available CPU. An Engine is
// stateless (it holds only the configured degree) and is safe for concurrent
// use by multiple goroutines; each kernel call forks at most Workers()-1
// goroutines and joins them before returning, so the pool is bounded per
// call and concurrent callers cannot interfere with each other.
type Engine struct {
	workers int
}

// NewEngine returns an engine with the given parallelism degree. Values <= 0
// select one worker per available CPU (runtime.GOMAXPROCS); 1 forces the
// sequential path everywhere.
func NewEngine(workers int) Engine { return Engine{workers: workers} }

// Workers returns the effective parallelism degree of the engine.
func (e Engine) Workers() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// chunkRanges splits [0, n) into at most workers contiguous half-open ranges
// of near-equal length, none shorter than the given minimum chunk length
// (except possibly the only one). The split is a pure function of its
// arguments, so a given engine always chunks a given input the same way.
func chunkRanges(n, workers, minLen int) [][2]int {
	if n <= 0 {
		return nil
	}
	if minLen < 1 {
		minLen = 1
	}
	if workers > n/minLen {
		workers = n / minLen
	}
	if workers < 1 {
		workers = 1
	}
	out := make([][2]int, 0, workers)
	base := n / workers
	rem := n % workers
	start := 0
	for i := 0; i < workers; i++ {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}

// ForEachChunk runs fn over [0, n) split into at most Workers() contiguous
// chunks, on the calling goroutine plus at most Workers()-1 forked ones. fn
// receives the chunk ordinal and its half-open index range; chunk 0 always
// runs on the calling goroutine. fn must not touch state shared across chunks
// without its own synchronisation. It is exported for consumers that fuse
// their own per-chunk work and reduce the chunks' partial results in chunk
// order: the dense GMM round merges a chunk's caches and finds its farthest
// point in one pass, the pruned one evaluates a chunk of its survivors.
// Items are assumed cheap (minChunk of them per chunk at least); when each
// item performs substantial work of its own, use ForEachChunkCost.
func (e Engine) ForEachChunk(n int, fn func(chunk, lo, hi int)) {
	e.run(chunkRanges(n, e.Workers(), minChunk), fn)
}

// ForEachChunkCost is ForEachChunk for loops whose items are themselves
// expensive: itemCost is the approximate number of distance-evaluation-sized
// operations per item, and the minimum chunk length shrinks proportionally
// (an O(n)-cost item justifies a chunk of a single item). The chunking
// remains a pure function of (n, itemCost, workers).
func (e Engine) ForEachChunkCost(n, itemCost int, fn func(chunk, lo, hi int)) {
	if itemCost < 1 {
		itemCost = 1
	}
	e.run(chunkRanges(n, e.Workers(), minChunk/itemCost), fn)
}

func (e Engine) run(chunks [][2]int, fn func(chunk, lo, hi int)) {
	if len(chunks) == 0 {
		return
	}
	if len(chunks) == 1 {
		fn(0, chunks[0][0], chunks[0][1])
		return
	}
	var wg sync.WaitGroup
	for ci := 1; ci < len(chunks); ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			fn(ci, chunks[ci][0], chunks[ci][1])
		}(ci)
	}
	fn(0, chunks[0][0], chunks[0][1])
	wg.Wait()
}

// NumChunks reports how many chunks ForEachChunk will use for an input of n
// items: the size consumers should allocate for per-chunk partial results.
func (e Engine) NumChunks(n int) int { return len(chunkRanges(n, e.Workers(), minChunk)) }

// NumChunksCost is NumChunks for ForEachChunkCost.
func (e Engine) NumChunksCost(n, itemCost int) int {
	if itemCost < 1 {
		itemCost = 1
	}
	return len(chunkRanges(n, e.Workers(), minChunk/itemCost))
}

// Sequential reports whether a pass performing evals distance-evaluation-
// sized operations should take the sequential path: either the engine is
// pinned to one worker or the work is below SequentialCutoff. Consumers
// implementing their own fused kernels (gmm, outliers) use it as the gate so
// the cutoff policy lives in one place.
func (e Engine) Sequential(evals int) bool {
	return e.Workers() == 1 || evals < SequentialCutoff
}

// DistanceToSet returns min_{x in set} d(p, x) in the TRUE distance domain
// together with the index of the closest point, chunking the candidate set
// across the workers and reducing the per-chunk surrogate minima in chunk
// order (lowest index wins ties). An empty set yields (+Inf, -1).
func (e Engine) DistanceToSet(sp Space, p Point, set Dataset) (float64, int) {
	if len(set) == 0 {
		return math.Inf(1), -1
	}
	if e.Sequential(len(set)) {
		s, idx := sp.ArgNearest(p, set)
		return sp.FromSurrogate(s), idx
	}
	nc := e.NumChunks(len(set))
	bests := make([]float64, nc)
	idxs := make([]int, nc)
	e.ForEachChunk(len(set), func(chunk, lo, hi int) {
		s, idx := sp.ArgNearest(p, set[lo:hi])
		bests[chunk] = s
		if idx >= 0 {
			idx += lo
		}
		idxs[chunk] = idx
	})
	best := math.Inf(1)
	idx := -1
	for c := 0; c < nc; c++ {
		if idxs[c] >= 0 && bests[c] < best {
			best = bests[c]
			idx = idxs[c]
		}
	}
	return sp.FromSurrogate(best), idx
}

// surrogateNearest computes, for every point, the surrogate distance to and
// the index of its closest center, chunking the points across the workers.
// Each point's scan over the centers is the space's batched ArgNearest row
// kernel, so every entry is bit-identical to the sequential computation.
// Empty centers yield (+Inf, -1) entries.
func (e Engine) surrogateNearest(sp Space, points Dataset, centers Dataset) ([]float64, []int) {
	dists := make([]float64, len(points))
	idxs := make([]int, len(points))
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dists[i], idxs[i] = sp.ArgNearest(points[i], centers)
		}
	}
	cost := max(1, len(centers))
	if e.Sequential(len(points) * cost) {
		fill(0, len(points))
		return dists, idxs
	}
	e.ForEachChunkCost(len(points), cost, func(_, lo, hi int) { fill(lo, hi) })
	return dists, idxs
}

// NearestBatch computes, for every point, the TRUE distance to and the index
// of its closest center: the fused batch form of DistanceToSet that Assign,
// Radius and the outlier selection are built on. The per-point scans run in
// the surrogate domain; the conversion to true distances is one
// FromSurrogate per point (not per evaluation).
func (e Engine) NearestBatch(sp Space, points Dataset, centers Dataset) ([]float64, []int) {
	dists, idxs := e.surrogateNearest(sp, points, centers)
	for i, s := range dists {
		dists[i] = sp.FromSurrogate(s)
	}
	return dists, idxs
}

// NearestRadius is the fused tail of the two-round solvers: ONE
// nearest-center pass yields every point's true distance to and index of its
// closest center together with the radius after discarding the z farthest
// points (z <= 0: the plain radius). The radius is bit-identical to Radius /
// RadiusExcluding and the other two results to NearestBatch — max and order
// statistics commute with the monotone FromSurrogate — for half the distance
// evaluations of calling them in turn, which evals reports.
//
// hints, when non-nil, yields for every point a center that is probably its
// nearest (the solvers know one: the center of the point's first-round
// proxy). On a space that can prune, and when the centers are few enough for
// a table of their pairwise distances to pay (k*k <= n), the pass then
// evaluates only the centers a hint cannot rule out — see hintedNearest; the
// results are the same bits whatever the hints say. hints is called only if
// they are going to be used, so a caller that must compute them pays nothing
// on the dense pass.
func (e Engine) NearestRadius(sp Space, points Dataset, centers Dataset, z int, hints func() []int) (dists []float64, idxs []int, radius float64, evals int64) {
	if pr, k := PrunerOf(sp), len(centers); pr != nil && hints != nil && k > 0 && k*k <= len(points) {
		dists, idxs, evals = e.hintedNearest(sp, pr, points, centers, hints())
	} else {
		dists, idxs = e.surrogateNearest(sp, points, centers)
		evals = int64(len(points)) * int64(len(centers))
	}
	switch {
	case len(points) == 0 || z >= len(points):
	case z <= 0:
		_, m := argMaxSeq(dists, 0, len(dists))
		radius = sp.FromSurrogate(m)
	default:
		// Dropping the z largest leaves the (n-z)-th smallest; select on a
		// copy, the caller needs the distances in point order.
		radius = sp.FromSurrogate(selectInPlace(slices.Clone(dists), len(dists)-z-1))
	}
	for i, s := range dists {
		dists[i] = sp.FromSurrogate(s)
	}
	return dists, idxs, radius, evals
}

// hintedNearest is surrogateNearest for points that come with a guess. With b
// the hinted center and s = Surrogate(p, b), every center c whose threshold
// HalfSurrogates(Surrogate(b, c)) exceeds s is STRICTLY farther from p than b
// (the Pruner contract), so it can be neither the nearest center nor tie with
// it: the argmin over b and the centers that fail the test, lowest index on
// ties, is the row kernel's answer bit for bit. One k*k table holds, per
// center, the other centers in ascending order of threshold, so the ones to
// evaluate are a prefix of the hint's row, contiguous for the batched kernel.
// A point whose prefix is longer than a quarter of the row — a hint far from
// the truth — goes to the row kernel instead, one evaluation worse off than
// without a hint, as does a point without a valid hint. evals counts the
// table's k*k evaluations too. There is at least one center.
func (e Engine) hintedNearest(sp Space, pr Pruner, points, centers Dataset, hints []int) (dists []float64, idxs []int, evals int64) {
	k := len(centers)
	dists, idxs = make([]float64, len(points)), make([]int, len(points))

	// Row b of the table: the centers other than b, ascending by threshold
	// (-Inf, "nothing promised", first: always evaluated).
	row := k - 1
	thr, nbr, nbrPts := make([]float64, k*row), make([]int, k*row), make(Dataset, k*row)
	all, order := make([]float64, k), make([]int, 0, row)
	for b, c := range centers {
		sp.DistancesTo(all, c, centers)
		pr.HalfSurrogates(all, len(c))
		order = order[:0]
		for j := range centers {
			if j != b {
				order = append(order, j)
			}
		}
		slices.SortFunc(order, func(x, y int) int { return cmp.Or(cmp.Compare(all[x], all[y]), cmp.Compare(x, y)) })
		for i, j := range order {
			thr[b*row+i], nbr[b*row+i], nbrPts[b*row+i] = all[j], j, centers[j]
		}
	}

	limit := k / 4
	scan := func(lo, hi int) int64 {
		var n int64
		buf := make([]float64, limit)
		for i := lo; i < hi; i++ {
			p, h := points[i], hints[i]
			if uint(h) >= uint(k) {
				dists[i], idxs[i] = sp.ArgNearest(p, centers)
				n += int64(k)
				continue
			}
			best, at := sp.Surrogate(p, centers[h]), h
			// The centers to evaluate: the prefix of h's row the test fails
			// on. An infinite or NaN surrogate fails it everywhere.
			t, cnt := thr[h*row:(h+1)*row], 0
			for cnt < row && cnt <= limit && !(best < t[cnt]) {
				cnt++
			}
			if cnt > limit || !(best < math.Inf(1)) {
				dists[i], idxs[i] = sp.ArgNearest(p, centers)
				n += int64(1 + k)
				continue
			}
			d := buf[:cnt]
			sp.DistancesTo(d, p, nbrPts[h*row:h*row+cnt])
			for j, s := range d {
				if c := nbr[h*row+j]; s < best || (s == best && c < at) {
					best, at = s, c
				}
			}
			dists[i], idxs[i] = best, at
			n += int64(1 + cnt)
		}
		return n
	}
	// Chunked by what a point costs while its hint holds, not by k.
	evals = int64(k) * int64(k)
	if e.Sequential(len(points) * (limit + 1)) {
		return dists, idxs, evals + scan(0, len(points))
	}
	counts := make([]int64, e.NumChunksCost(len(points), limit+1))
	e.ForEachChunkCost(len(points), limit+1, func(chunk, lo, hi int) { counts[chunk] = scan(lo, hi) })
	for _, n := range counts {
		evals += n
	}
	return dists, idxs, evals
}

// Assign maps every point to the index of its closest center, chunking the
// points across the workers. The scan stays entirely in the surrogate
// domain — no conversion is ever needed for an argmin — and only the index
// vector is materialised.
func (e Engine) Assign(sp Space, points Dataset, centers Dataset) []int {
	idxs := make([]int, len(points))
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_, idxs[i] = sp.ArgNearest(points[i], centers)
		}
	}
	cost := max(1, len(centers))
	if e.Sequential(len(points) * cost) {
		fill(0, len(points))
		return idxs
	}
	e.ForEachChunkCost(len(points), cost, func(_, lo, hi int) { fill(lo, hi) })
	return idxs
}

// Radius computes max_{s in points} d(s, centers): per-chunk surrogate
// maxima reduced in chunk order, with a single FromSurrogate on the final
// maximum. Max is an exact (associative and commutative) operation on
// floats and FromSurrogate is monotone, so the value is bit-identical to the
// sequential true-domain scan.
func (e Engine) Radius(sp Space, points Dataset, centers Dataset) float64 {
	if len(points) == 0 {
		return 0
	}
	cost := max(1, len(centers))
	scan := func(lo, hi int) float64 {
		var r float64
		first := true
		for i := lo; i < hi; i++ {
			s, _ := sp.ArgNearest(points[i], centers)
			if first || s > r {
				r = s
				first = false
			}
		}
		return r
	}
	if e.Sequential(len(points) * cost) {
		return sp.FromSurrogate(scan(0, len(points)))
	}
	nc := e.NumChunksCost(len(points), cost)
	maxes := make([]float64, nc)
	e.ForEachChunkCost(len(points), cost, func(chunk, lo, hi int) {
		maxes[chunk] = scan(lo, hi)
	})
	r := maxes[0]
	for _, m := range maxes[1:] {
		if m > r {
			r = m
		}
	}
	return sp.FromSurrogate(r)
}

// RadiusExcluding computes the radius after discarding the z points farthest
// from the centers. The nearest-distance pass is chunked across the workers
// in the surrogate domain; the rank selection runs sequentially on the
// surrogate vector (order statistics commute with the monotone
// FromSurrogate), so the result matches the sequential true-domain path bit
// for bit.
func (e Engine) RadiusExcluding(sp Space, points Dataset, centers Dataset, z int) float64 {
	if len(points) == 0 || z >= len(points) {
		return 0
	}
	if z <= 0 {
		return e.Radius(sp, points, centers)
	}
	dists, _ := e.surrogateNearest(sp, points, centers)
	// The radius with z outliers is the (n-z)-th smallest distance, i.e. we
	// drop the z largest. Select rather than sort: len(points) can be large.
	return sp.FromSurrogate(selectInPlace(dists, len(dists)-z-1))
}

// argMaxSeq is the sequential argmax over v[lo:hi] with global indices.
func argMaxSeq(v []float64, lo, hi int) (int, float64) {
	best, bestVal := -1, math.Inf(-1)
	for i := lo; i < hi; i++ {
		if v[i] > bestVal {
			bestVal = v[i]
			best = i
		}
	}
	return best, bestVal
}

// MinPairwiseDistance returns the minimum TRUE distance between two distinct
// points of the dataset (+Inf for fewer than two points), chunking the outer
// row loop across the workers with the batched row kernel. The streaming
// algorithms bootstrap their lower bound phi from it.
func (e Engine) MinPairwiseDistance(sp Space, points Dataset) float64 {
	n := len(points)
	if n < 2 {
		return math.Inf(1)
	}
	rowMin := func(lo, hi int) float64 {
		m := math.Inf(1)
		for i := lo; i < hi; i++ {
			if s, idx := sp.ArgNearest(points[i], points[i+1:]); idx >= 0 && s < m {
				m = s
			}
		}
		return m
	}
	if e.Sequential(n * (n - 1) / 2) {
		return sp.FromSurrogate(rowMin(0, n-1))
	}
	nc := e.NumChunksCost(n-1, n/2)
	mins := make([]float64, nc)
	e.ForEachChunkCost(n-1, n/2, func(chunk, lo, hi int) {
		mins[chunk] = rowMin(lo, hi)
	})
	m := math.Inf(1)
	for _, v := range mins {
		if v < m {
			m = v
		}
	}
	return sp.FromSurrogate(m)
}
