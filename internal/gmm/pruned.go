package gmm

import (
	"math"
	"slices"

	"coresetclustering/internal/metric"
)

// The pruned phase: evaluate only the points a new center can capture, and
// visit only the centers whose clusters could lose one.
//
// When center c is added, a point p owned by center b with
// d(c, b) >= 2*d(p, b) satisfies d(c, p) >= d(c, b) - d(p, b) >= d(p, b) by
// the triangle inequality, so the dense update would leave its cache entry
// untouched; and when d(c, b) >= 2*(radius of b's cluster) that holds for
// every point b owns. The pruned update therefore skips whole clusters and
// then single points on that test, and runs the space's batched DistancesTo
// kernel on the rest, by index (metric.DistancesToIndexed) — the same
// per-pair values UpdateNearest computes, so every cache entry, every radius
// and every tie-break is bit-identical to the dense phase. The test itself
// lives in the space (metric.Pruner): it is strict and rounded down by a
// slack that dominates the kernels' error, so a point on the boundary is
// evaluated, never skipped. Spaces without the capability (CosineSpace,
// custom distance functions) stay dense and perform exactly k*n evaluations.
//
// Only what is captured moves. Gathering lists the points that fail the
// tests and writes nothing else; most of those a round evaluates stay where
// they are (on a round-1 partition about one in twelve is captured). The
// apply step moves a captured point to the new center's list and flags the
// cluster it left; only flagged clusters are compacted, and a cluster's
// summary (its farthest point) is recomputed only when that point was the one
// captured, a group's only when the point it names was.
//
// That test needs d(c, b), and evaluating c against every existing center is
// work proportional to the number of centers, not to what c can capture — on
// a round-1 partition grown to 800 centers, nearly half of the phase. So the
// centers that exist when the phase begins (PrunedAt of them: the probe below
// picks the moment, nothing else does) become PIVOTS, and every later center
// joins the GROUP of its nearest pivot. A round evaluates c against the pivots
// only. For a member b of pivot v's group the triangle inequality gives
// d(c, b) >= d(c, v) - d(b, v) >= d(c, v) - (the group's reach, the largest
// member-to-pivot distance), and the space chains that bound into a threshold
// at or below the one the evaluated pair would have produced
// (Pruner.HalfSurrogatesVia, rounding included). A group whose largest cluster
// radius is under its threshold is skipped whole: no member cluster can lose
// a point, so none of its centers is evaluated or even visited. The members
// of the other groups are evaluated in one batch and go through the
// per-cluster and per-point tests as before; the pivots' own clusters are
// tested against the pairs that were evaluated anyway. The next farthest point
// is read off per-group summaries, through each center's group index. The
// chain can only be less sharp than the pair it stands in for — the set of
// clusters walked may shrink, never the set of points that can be captured —
// so the output bits do not depend on it; a space may decline it (Angular
// does) and then every group is walked, which is the cost below.
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
// Worst case k*n + k^2/2 evaluations (no point and no group skipped: the
// pivots ARE centers, so pivots plus members is one evaluation per existing
// center) and at most 3k for the probes; on clustered input the
// center-to-center part falls from k^2/2 to about k*(PrunedAt + the size of
// one group). Extra memory 12 bytes per point for the member lists, allocated
// on entering the phase, plus 12 per point of the largest set one round had to
// evaluate (its index and its surrogate: the kernel reads the points in place
// through metric.DistancesToIndexed), plus a few integers per center for the
// lists' offsets and summaries and for the groups; of those, moving only
// captures costs 9 bytes per center (its group index, the flag of a cluster
// that lost a point and that cluster's slot in a round's scratch list).

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
	nextProbe int            // center count at which the dense phase probes next
	prunedAt  int            // center count at which the pruned phase began, 0 = dense: the pivots are centers [0, prunedAt)

	// The incoming center against the pivots (every center so far, while
	// probing): the surrogates as computed, and the skip thresholds of the
	// pivots' own clusters.
	pivS, thr []float64

	// Allocated on entering the phase. Per center b, the points it owns are
	// memb[clOff[b] : clOff[b]+clCnt[b]]; clMax[b] is the max of minDist over
	// them (-Inf when empty) and clArg[b] the lowest point index attaining it
	// (-1 when empty).
	clOff, clCnt, clArg []int32
	clMax               []float64
	memb                []int32   // arena of member lists, 3n long: lists only shrink in place, a new one starts at tail
	tail                int       // first free arena slot
	surv                []int32   // this round's points that must be evaluated (scratch, grown on demand)
	survDist            []float64 // and their surrogates to the incoming center

	// The group level. Per pivot g, its group is the later centers whose
	// nearest pivot it is: the list grpHead[g], grpNext[...] of center indices
	// (-1 ends it; grpNext is indexed by center, one arena for all groups).
	// grpReach[g] is the largest computed surrogate from a member to g — what
	// bounds a member's distance to an incoming center that only g was
	// evaluated against — and grpMax[g], grpArg[g] summarise the members'
	// clusters as clMax, clArg summarise one. The pivot's own cluster is not
	// in its group's summary: it is tested against the evaluated pair.
	// grpOf[b] is the group center b joined (-1 for a pivot).
	grpHead, grpNext, grpArg, grpOf []int32
	grpReach, grpBound, grpMax      []float64 // grpBound[g]: Pruner.ReachBounds of grpReach[g], converted when it grows
	via                             []float64 // this round's group thresholds (scratch),
	cand                            []int32   // the members of the groups it could not skip,
	candThr                         []float64 // and the members' skip thresholds

	// The clusters this round's captures left (scratch), flagged in clLost,
	// and the groups whose farthest point was captured (scratch): only they
	// are compacted or summarised again.
	lost, lostGrp []int32
	clLost        []bool
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
// returns true st.pivS and st.thr hold c against the pivots.
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

// thresholds evaluates c against the pivots — every existing center, on a
// probe round — and leaves in pivS[b] the surrogate and in thr[b] the
// surrogate below which a point owned by b provably stays with b.
func (st *state) thresholds(c metric.Point) {
	for _, idx := range st.centers[len(st.centerPts):] {
		st.centerPts = append(st.centerPts, st.points[idx])
	}
	np := st.prunedAt
	if !st.isPruned() {
		np = len(st.centerPts)
		st.pivS, st.thr = make([]float64, np), make([]float64, np)
	}
	st.sp.DistancesTo(st.pivS, c, st.centerPts[:np])
	st.evals += int64(np)
	copy(st.thr, st.pivS)
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

// fold merges the summary (v, arg) of a point or a set of points into the
// summary (*mx, *at) of a larger set; the explicit index comparison keeps
// the lowest index on ties whatever the order of folding.
func fold(mx *float64, at *int32, v float64, arg int32) {
	if v > *mx || (v == *mx && arg < *at) {
		*mx, *at = v, arg
	}
}

// bucket builds the pruned phase's structures from the dense caches: one
// counting sort of the points by owner, and one empty group per pivot.
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
		fold(&st.clMax[b], &st.clArg[b], st.minDist[p], int32(p))
	}

	st.grpHead, st.grpArg = make([]int32, m), make([]int32, m)
	st.grpNext, st.grpOf = make([]int32, m, 2*m), make([]int32, m, 2*m)
	st.grpReach, st.grpBound = make([]float64, m), make([]float64, m)
	st.grpMax, st.via = make([]float64, m), make([]float64, m)
	st.clLost = make([]bool, m, 2*m)
	for g := range st.grpHead {
		st.grpHead[g], st.grpArg[g], st.grpOf[g] = -1, -1, -1
		st.grpReach[g], st.grpBound[g], st.grpMax[g] = math.Inf(-1), math.Inf(-1), math.Inf(-1)
	}
	st.half.ReachBounds(st.grpBound, len(st.points[0]))
}

// candidates is the group level of the pruned update: with the incoming
// center c evaluated against the pivots only, a group is skipped whole when
// even the member nearest to c that the triangle inequality allows is too far
// for the group's largest cluster to lose a point. The members of the other
// groups are evaluated, in one batch, and left in cand with their skip
// thresholds in candThr.
func (st *state) candidates(c metric.Point) {
	copy(st.via, st.pivS)
	st.half.HalfSurrogatesVia(st.via, st.grpBound, len(c))
	cand := st.cand[:0]
	for g, t := range st.via {
		if st.grpMax[g] < t {
			continue
		}
		for b := st.grpHead[g]; b >= 0; b = st.grpNext[b] {
			cand = append(cand, b)
		}
	}
	st.cand = cand // keep the grown scratch
	if cap(st.candThr) < len(cand) {
		st.candThr = make([]float64, cap(cand))
	}
	st.candThr = st.candThr[:len(cand)]
	metric.DistancesToIndexed(st.sp, st.candThr, c, st.centerPts, cand)
	st.evals += int64(len(cand))
	st.half.HalfSurrogates(st.candThr, len(c))
}

// gather applies the skip test with threshold t to cluster b. A cluster whose
// radius passes is skipped whole; in a walked cluster the members that fail
// are appended to surv for evaluation, and nothing moves: only a capture
// changes a list. Most members of a walked cluster fail, so every one is
// written and the count advances, without a branch, past those that fail.
func (st *state) gather(surv []int32, b int, t float64) []int32 {
	if st.clMax[b] < t {
		return surv
	}
	seg, minDist := st.memb[st.clOff[b]:st.clOff[b]+st.clCnt[b]], st.minDist
	surv = slices.Grow(surv, len(seg))
	k := len(surv)
	surv = surv[:k+len(seg)]
	for _, p := range seg {
		surv[k] = p
		if !(minDist[p] < t) {
			k++
		}
	}
	return surv[:k]
}

// updatePruned is the pruned update: it min-merges the caches against the
// newly selected center c (index newIdx into centers; pivS and thr hold it
// against the pivots), touching only the points that fail the skip tests,
// leaves the farthest point in nextFar and returns the new maximum of
// minDist.
func (st *state) updatePruned(c metric.Point, newIdx int) float64 {
	// The new center's list starts at tail and can take up to n points. The
	// lists are packed left when fewer than n slots remain, that is after at
	// least n captures: O(1) amortised per captured point.
	n := len(st.points)
	if st.tail > len(st.memb)-n {
		st.compact()
	}

	// Gather: the pivots' own clusters against the evaluated pairs, then the
	// clusters of the groups that could not be skipped.
	st.candidates(c)
	surv := st.surv[:0]
	for b, t := range st.thr {
		surv = st.gather(surv, b, t)
	}
	for i, b := range st.cand {
		surv = st.gather(surv, int(b), st.candThr[i])
	}
	st.surv = surv // keep the grown scratch
	ns := len(surv)
	if cap(st.survDist) < ns {
		st.survDist = make([]float64, cap(surv))
	}

	// Evaluate: one batched kernel call over the points by index, chunked
	// across the workers when the list is long. Every value is what
	// UpdateNearest would have computed for that pair.
	dist := st.survDist[:ns]
	st.evals += int64(ns)
	if st.eng.Sequential(ns) {
		metric.DistancesToIndexed(st.sp, dist, c, st.points, surv)
	} else {
		st.eng.ForEachChunk(ns, func(_, lo, hi int) {
			metric.DistancesToIndexed(st.sp, dist[lo:hi], c, st.points, surv[lo:hi])
		})
	}

	// Apply, sequentially: a captured point moves to the new center's list
	// and flags the cluster it left; the others stay where they are.
	// The captures are first listed, without a branch, where the new list
	// goes (as positions in surv), then applied.
	minDist, closest, memb := st.minDist, st.closest, st.memb
	at := st.tail
	for i, p := range surv {
		memb[at] = int32(i)
		if dist[i] < minDist[p] {
			at++
		}
	}
	mx, arg := math.Inf(-1), int32(-1)
	lost := st.lost[:0]
	for j, i := range memb[st.tail:at] {
		p, s := surv[i], dist[i]
		if b := closest[p]; !st.clLost[b] {
			st.clLost[b] = true
			lost = append(lost, int32(b))
		}
		minDist[p], closest[p] = s, newIdx
		memb[st.tail+j] = p
		fold(&mx, &arg, s, p)
	}
	st.clOff = append(st.clOff, int32(st.tail))
	st.clCnt = append(st.clCnt, int32(at-st.tail))
	st.clMax = append(st.clMax, mx)
	st.clArg = append(st.clArg, arg)
	st.clLost = append(st.clLost, false)
	st.tail = at

	// The clusters that lost a point drop it (compacted in place, without a
	// branch). Every other cache is unchanged, so a summary moves only when
	// the point it names was captured: then the cluster is summarised again,
	// and so is its group if the group's summary named that point too.
	lostGrp := st.lostGrp[:0]
	for _, b := range lost {
		st.clLost[b] = false
		seg := memb[st.clOff[b] : st.clOff[b]+st.clCnt[b]]
		kept := 0
		for _, p := range seg {
			seg[kept] = p
			if closest[p] == int(b) {
				kept++
			}
		}
		st.clCnt[b] = int32(kept)
		far := st.clArg[b]
		if closest[far] != newIdx {
			continue
		}
		mx, arg := math.Inf(-1), int32(-1)
		for _, p := range seg[:kept] {
			fold(&mx, &arg, minDist[p], p)
		}
		st.clMax[b], st.clArg[b] = mx, arg
		if g := st.grpOf[b]; g >= 0 && st.grpArg[g] == far {
			lostGrp = append(lostGrp, g)
		}
	}
	st.lost, st.lostGrp = lost, lostGrp // keep the grown scratch

	// The new center joins the group of its nearest pivot (lowest index on
	// ties), which only gains one cluster.
	g := 0
	for j, s := range st.pivS {
		if s < st.pivS[g] {
			g = j
		}
	}
	st.grpNext = append(st.grpNext, st.grpHead[g])
	st.grpOf = append(st.grpOf, int32(g))
	st.grpHead[g] = int32(newIdx)
	if r := math.Max(st.grpReach[g], st.pivS[g]); r != st.grpReach[g] {
		st.grpReach[g], st.grpBound[g] = r, r
		st.half.ReachBounds(st.grpBound[g:g+1], len(c))
	}
	for _, w := range lostGrp {
		mx, arg := math.Inf(-1), int32(-1)
		for b := st.grpHead[w]; b >= 0; b = st.grpNext[b] {
			fold(&mx, &arg, st.clMax[b], st.clArg[b])
		}
		st.grpMax[w], st.grpArg[w] = mx, arg
	}
	fold(&st.grpMax[g], &st.grpArg[g], st.clMax[newIdx], st.clArg[newIdx])

	// The radius and the next farthest point, from the summaries: every
	// cluster is a pivot's own or in exactly one group.
	far, farDist := int32(-1), math.Inf(-1)
	for b := range st.grpMax {
		fold(&farDist, &far, st.clMax[b], st.clArg[b])
		fold(&farDist, &far, st.grpMax[b], st.grpArg[b])
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
