package gmm

import (
	"math"

	"coresetclustering/internal/metric"
)

// The pruned phase: evaluate only the points a new center can capture.
//
// When center c is added, a point p owned by center b with
// d(c, b) >= 2*d(p, b) satisfies d(c, p) >= d(c, b) - d(p, b) >= d(p, b) by
// the triangle inequality, so the dense update would leave its cache entry
// untouched; and when d(c, b) >= 2*(radius of b's cluster) that holds for
// every point b owns. The pruned update therefore evaluates c against the
// existing centers, skips whole clusters and then single points on that
// test, and runs the space's batched DistancesTo kernel on the rest — the
// same per-pair values UpdateNearest computes, so every cache entry, every
// radius and every tie-break is bit-identical to the dense phase. The test
// itself lives in the space (metric.Pruner): it is strict and rounded down by
// a slack that dominates the kernels' error, so a point on the boundary is
// evaluated, never skipped. Spaces without the capability (CosineSpace,
// custom distance functions) stay dense and perform exactly k*n evaluations.
//
// Bookkeeping costs more than it saves until the centers resolve the input's
// structure (with fewer centers than natural clusters nothing is prunable),
// so a run starts dense and PROBES, at geometrically spaced center counts,
// a bounded sample of points: which share could the incoming center skip,
// net of what evaluating it against the existing centers costs? The first
// probe that says at least half buckets the points once, O(n), and the run
// stays pruned. The rule reads only the data — no option, no threshold a
// caller can set — and, both phases being exact, cannot change an output bit.
//
// Worst case k*n + k^2/2 evaluations (nothing skipped, plus the
// center-to-center ones) and at most 3k for the probes; extra memory 12 bytes
// per point for the member lists, allocated on entering the phase, plus 36
// per point of the largest set one round had to evaluate.

const (
	// firstProbe is the center count of the first probe and probeGrowth the
	// spacing of the following ones (next = count + count/probeGrowth): a
	// run selecting k centers probes O(log k) times. A run that ends within
	// a few rounds of switching does not win the bucketing pass back
	// (measured: +15 % on 320 points, k = 20, switching at 16), so runs
	// below 32 centers — every streaming and window extraction at the
	// daemon's defaults — never probe at all.
	firstProbe  = 32
	probeGrowth = 2
	// probeSample bounds the points a probe looks at (a fixed-stride
	// sample), so a probe costs about a thousand comparisons plus one
	// evaluation per existing center whatever n is.
	probeSample = 1024
)

// pruner is the part of state that belongs to the pruned phase and to the
// probe that enters it.
type pruner struct {
	half      metric.Pruner  // nil: the space cannot prune, dense for good
	centerPts metric.Dataset // the centers' points, in selection order (caught up by thresholds)
	thr       []float64      // per center: skip threshold against the incoming center
	nextProbe int            // center count at which the dense phase probes next
	prunedAt  int            // center count at which the pruned phase began, 0 = dense

	// Allocated on entering the phase. Per center b, the points it owns are
	// memb[clOff[b] : clOff[b]+clCnt[b]]; clMax[b] is the max of minDist over
	// them (-Inf when empty) and clArg[b] the lowest point index attaining it
	// (-1 when empty).
	clOff, clCnt, clArg []int32
	clMax               []float64
	memb                []int32        // arena of member lists, 3n long: lists only shrink in place, a new one starts at tail
	tail                int            // first free arena slot
	surv                []int32        // this round's points that must be evaluated (scratch, grown on demand),
	survPts             metric.Dataset // their slice headers, contiguous for the kernel,
	survDist            []float64      // and their surrogates to the incoming center

	// The farthest point after the last update (pruned phase only): read off
	// the cluster summaries, it replaces the O(n) argmax of the dense phase.
	nextFar     int
	nextFarDist float64
}

func (st *state) initPruner() {
	st.nextProbe = firstProbe
	if len(st.points) <= math.MaxInt32/3 { // arena offsets are int32
		st.half = metric.PrunerOf(st.sp)
	}
}

func (st *state) isPruned() bool { return st.memb != nil }

// enterOrStayPruned reports whether the update for incoming center c runs in
// the pruned phase, probing and switching if this is a probe round. When it
// returns true st.thr holds c's skip thresholds.
func (st *state) enterOrStayPruned(c metric.Point) bool {
	m := len(st.centers)
	if !st.isPruned() && (st.half == nil || m != st.nextProbe) {
		return false
	}
	st.thresholds(c)
	if st.isPruned() {
		return true
	}
	if !st.probe() {
		st.nextProbe += st.nextProbe / probeGrowth
		return false
	}
	st.bucket()
	st.prunedAt = m
	return true
}

// thresholds evaluates c against every existing center and leaves in thr[b]
// the surrogate below which a point owned by b provably stays with b.
func (st *state) thresholds(c metric.Point) {
	for _, idx := range st.centers[len(st.centerPts):] {
		st.centerPts = append(st.centerPts, st.points[idx])
	}
	m := len(st.centerPts)
	if cap(st.thr) < m {
		st.thr = make([]float64, m, 2*m)
	}
	st.thr = st.thr[:m]
	st.sp.DistancesTo(st.thr, c, st.centerPts)
	st.evals += int64(m)
	st.half.HalfSurrogates(st.thr, len(c))
}

// probe reports whether the pruned update would pay for the incoming center
// whose thresholds are in thr: over a fixed-stride sample of the points, the
// share it could skip, net of the share the center-to-center evaluations
// cost (twice: the per-cluster bookkeeping costs about as much again), must
// be at least half.
func (st *state) probe() bool {
	n := len(st.points)
	stride := (n + probeSample - 1) / probeSample
	sampled, skippable := 0, 0
	for i := 0; i < n; i += stride {
		sampled++
		if st.minDist[i] < st.thr[st.closest[i]] {
			skippable++
		}
	}
	return float64(skippable)/float64(sampled)-2*float64(len(st.centers))/float64(n) >= 0.5
}

// note folds member p with cached distance d into cluster b's summary; the
// explicit index comparison keeps the lowest index on ties whatever the
// member order.
func (st *state) note(b int, p int32, d float64) {
	if d > st.clMax[b] || (d == st.clMax[b] && p < st.clArg[b]) {
		st.clMax[b], st.clArg[b] = d, p
	}
}

// bucket builds the pruned phase's structures from the dense caches: one
// counting sort of the points by owner.
func (st *state) bucket() {
	n, m := len(st.points), len(st.centers)
	st.clOff, st.clCnt, st.clArg = make([]int32, m, 2*m), make([]int32, m, 2*m), make([]int32, m, 2*m)
	st.clMax = make([]float64, m, 2*m)
	for _, b := range st.closest {
		st.clCnt[b]++
	}
	off := int32(0)
	for b := range st.clOff {
		st.clOff[b], off = off, off+st.clCnt[b]
		st.clCnt[b], st.clMax[b], st.clArg[b] = 0, math.Inf(-1), -1
	}
	st.memb = make([]int32, 3*n)
	st.tail = n
	for p, b := range st.closest {
		st.memb[st.clOff[b]+st.clCnt[b]] = int32(p)
		st.clCnt[b]++
		st.note(b, int32(p), st.minDist[p])
	}
}

// updatePruned is the pruned update: it min-merges the caches against the
// newly selected center c (index newIdx into centers, thresholds in thr),
// touching only the points that fail the skip test, and returns the new
// maximum of minDist.
func (st *state) updatePruned(c metric.Point, newIdx int) float64 {
	// The new center's list starts at tail and can take up to n points. The
	// lists are packed left when fewer than n slots remain, that is after at
	// least n captures: O(1) amortised per captured point.
	n := len(st.points)
	if st.tail > len(st.memb)-n {
		st.compact()
	}

	// Gather. A cluster whose radius passes the test is skipped whole; in a
	// walked cluster the members that pass stay (compacted in place, their
	// summary rebuilt), the others are set aside for evaluation.
	surv, survPts := st.surv[:0], st.survPts[:0]
	minDist, thr, clMax := st.minDist, st.thr, st.clMax[:len(st.thr)]
	for b, t := range thr {
		if clMax[b] < t {
			continue
		}
		seg := st.memb[st.clOff[b] : st.clOff[b]+st.clCnt[b]]
		kept, mx, arg := 0, math.Inf(-1), int32(-1)
		for _, p := range seg {
			d := minDist[p]
			if d < t {
				seg[kept] = p
				kept++
				if d > mx || (d == mx && p < arg) { // note, on locals

					mx, arg = d, p
				}
				continue
			}
			surv = append(surv, p)
			survPts = append(survPts, st.points[p])
		}
		st.clCnt[b], clMax[b], st.clArg[b] = int32(kept), mx, arg
	}
	st.surv, st.survPts = surv, survPts // keep the grown scratch
	ns := len(surv)
	if cap(st.survDist) < ns {
		st.survDist = make([]float64, cap(surv))
	}

	// Evaluate: one batched kernel call, chunked across the workers when
	// the list is long. Every value is what UpdateNearest would have
	// computed for that pair.
	dist, pts := st.survDist[:ns], survPts
	st.evals += int64(ns)
	if st.eng.Sequential(ns) {
		st.sp.DistancesTo(dist, c, pts)
	} else {
		st.eng.ForEachChunk(ns, func(_, lo, hi int) {
			st.sp.DistancesTo(dist[lo:hi], c, pts[lo:hi])
		})
	}

	// Apply, sequentially: a captured point moves to the new center's list,
	// the others return to the slots they left.
	st.clOff = append(st.clOff, int32(st.tail))
	st.clCnt = append(st.clCnt, 0)
	st.clMax = append(st.clMax, math.Inf(-1))
	st.clArg = append(st.clArg, -1)
	for i, p := range surv {
		b := newIdx
		if s := dist[i]; s < minDist[p] {
			minDist[p] = s
			st.closest[p] = newIdx
		} else {
			b = st.closest[p]
		}
		st.memb[st.clOff[b]+st.clCnt[b]] = p
		st.clCnt[b]++
		st.note(b, p, minDist[p])
	}
	st.tail += int(st.clCnt[newIdx])

	// The radius and the next farthest point, from the summaries.
	far, farDist := int32(-1), math.Inf(-1)
	for b, v := range st.clMax {
		if v > farDist || (v == farDist && st.clArg[b] < far) {
			far, farDist = st.clArg[b], v
		}
	}
	st.nextFar, st.nextFarDist = int(far), farDist
	return farDist
}

// compact packs the member lists to the front of the arena. Lists sit in
// center order and only ever shrink in place, so moving each one left in that
// order never overwrites a list not yet moved.
func (st *state) compact() {
	w := int32(0)
	for b, off := range st.clOff {
		copy(st.memb[w:], st.memb[off:off+st.clCnt[b]])
		st.clOff[b] = w
		w += st.clCnt[b]
	}
	st.tail = int(w)
}
