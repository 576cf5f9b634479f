package metric

import (
	"math"
	"math/rand"
)

// EstimateDoublingDimension returns an empirical estimate of the doubling
// dimension D of the dataset: the smallest D such that every ball of radius r
// can be covered by at most 2^D balls of radius r/2.
//
// Computing the exact doubling dimension is intractable, so we use the
// standard sampling heuristic: for a sample of anchor points and a geometric
// grid of radii, greedily cover the ball B(anchor, r) with balls of radius
// r/2 centered at points of the dataset, and report log2 of the largest cover
// size observed. The estimate is an upper-bound-flavoured heuristic intended
// for diagnostics and for sizing streaming coresets (the tau parameter of the
// 1-pass algorithm); the MapReduce algorithms never need it (they are
// oblivious to D, as the paper stresses).
//
// anchors bounds the number of sampled ball centers and radii the number of
// radius scales per anchor. rng may be nil, in which case a fixed-seed source
// is used so the estimate is deterministic. All pairwise scans (the
// farthest-point pass per anchor and the cover passes of the greedy) run
// through the engine's chunked batch kernels, and the anchor's distance vector
// is computed once per anchor and reused across every radius scale. Greedy
// decisions (first uncovered point, cover membership) are taken sequentially
// on the chunk-assembled vectors, so the estimate is bit-identical for every
// worker count.
func (e Engine) EstimateDoublingDimension(sp Space, points Dataset, anchors, radii int, rng *rand.Rand) float64 {
	if len(points) < 2 {
		return 0
	}
	if anchors <= 0 {
		anchors = 8
	}
	if radii <= 0 {
		radii = 4
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	if anchors > len(points) {
		anchors = len(points)
	}
	maxCover := 1
	dvec := make([]float64, len(points)) // true distances from the current anchor
	perm := rng.Perm(len(points))[:anchors]
	for _, ai := range perm {
		anchor := points[ai]
		// One chunked pass computes every distance from the anchor; the
		// vector is reused by all radius scales below.
		e.trueDistances(sp, dvec, anchor, points)
		var rmax float64
		for _, d := range dvec {
			if d > rmax {
				rmax = d
			}
		}
		if rmax == 0 {
			continue
		}
		r := rmax
		for s := 0; s < radii; s++ {
			// Points inside B(anchor, r), in index order.
			var ball Dataset
			for i, d := range dvec {
				if d <= r {
					ball = append(ball, points[i])
				}
			}
			if len(ball) > 1 {
				c := e.greedyCoverCount(sp, ball, r/2)
				if c > maxCover {
					maxCover = c
				}
			}
			r /= 2
		}
	}
	return math.Log2(float64(maxCover))
}

// trueDistances fills dst[i] with the TRUE distance from p to points[i],
// chunking the batched surrogate kernel across the workers and converting
// each chunk in place.
func (e Engine) trueDistances(sp Space, dst []float64, p Point, points Dataset) {
	fill := func(lo, hi int) {
		sp.DistancesTo(dst[lo:hi], p, points[lo:hi])
		for i := lo; i < hi; i++ {
			dst[i] = sp.FromSurrogate(dst[i])
		}
	}
	if e.Sequential(len(points)) {
		fill(0, len(points))
		return
	}
	e.ForEachChunk(len(points), func(_, lo, hi int) { fill(lo, hi) })
}

// greedyCoverCount covers the given points with balls of radius r centered at
// points of the set, greedily, and returns the number of balls used. This is
// the classic farthest-point cover: repeatedly pick the first uncovered point
// as a new center until everything is covered. Each cover pass is one
// chunked batch kernel; the uncovered-point selection stays sequential, so
// the count matches the sequential greedy exactly.
func (e Engine) greedyCoverCount(sp Space, points Dataset, r float64) int {
	covered := make([]bool, len(points))
	row := make([]float64, len(points))
	count := 0
	start := 0
	for {
		// Find the first uncovered point.
		idx := -1
		for i := start; i < len(covered); i++ {
			if !covered[i] {
				idx = i
				break
			}
		}
		if idx < 0 {
			return count
		}
		count++
		start = idx + 1
		e.trueDistances(sp, row, points[idx], points)
		for i, d := range row {
			if !covered[i] && d <= r {
				covered[i] = true
			}
		}
	}
}

// CoresetSizeForDimension returns the coreset size prescribed by the paper's
// analysis for the streaming algorithm: tau = (k + z) * (16/eps)^D, clamped to
// at least k+z+1 and at most maxSize (0 means no clamp). It is exposed so that
// callers who know (or have estimated) D can size the streaming coreset the
// way Theorem 3 does; in practice the experiments size coresets directly via
// the multiplier mu, exactly as the paper's experimental section does.
func CoresetSizeForDimension(k, z int, eps, d float64, maxSize int) int {
	if eps <= 0 {
		eps = 1
	}
	base := float64(k + z)
	size := base * math.Pow(16/eps, d)
	n := int(math.Ceil(size))
	if n < k+z+1 {
		n = k + z + 1
	}
	if maxSize > 0 && n > maxSize {
		n = maxSize
	}
	return n
}
