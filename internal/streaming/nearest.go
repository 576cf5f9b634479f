package streaming

import (
	"math"

	"coresetclustering/internal/metric"
)

// The update rule's nearest-center query, answered without scanning every
// center.
//
// A query asks ArgNearest(p, centers): the smallest surrogate and the lowest
// index attaining it. The index keeps about 2*sqrt(k) of the k centers as
// PIVOTS, chosen farthest-first, and puts every other center in the GROUP of
// its nearest pivot; a group's REACH is the largest computed surrogate from a
// member to its pivot. For every center b and pivot v it keeps the chained
// threshold
//
//	thr[b][v] = HalfSurrogatesVia(Surrogate(b, v), reach_v)
//
// which the space promises is at or below HalfSurrogates(Surrogate(b, c)) for
// every member c of v's group (metric.Pruner, contract 2; the spaces that
// chain have symmetric kernels, so the pair's argument order does not
// matter). A query evaluates
// p against the pivots in one batched DistancesTo, walks the nearest pivot's
// group, then every other group unless the current best b passes
// Surrogate(p, b) < thr[b][v]: by contract 1 every member c of that group is
// then STRICTLY farther from p than b, so it can neither be the nearest
// center nor tie with it. The centers that can are all evaluated, by the same
// kernels ArgNearest runs, and the lowest index wins a tie explicitly — so
// the answer, and with it every center, weight, phi and snapshot byte of the
// processor, is the scan's bit for bit.
//
// Keeping it current. A center the update rule opens joins the group of its
// nearest pivot with the surrogates its own query computed against the
// pivots; if it raises the group's reach, that pivot's threshold column is
// recomputed. Initialisation and every merge round renumber the centers, so
// they discard the index, and Clone, State and restoring never carry it: a
// query view costs O(tau) header words, and the index holds no point but the
// live centers'.
//
// When it is used. The index is built once the plain scans since the centers
// last changed structurally have cost about k^2 evaluations — its build costs
// 2*k*sqrt(k) — so short runs (a restored state's first points) stay on the
// scan. MergeDoublings' replay of buffered shards never builds it: a window
// replays a budget of points past initialisation and seals the result, and a
// build there served about twenty queries. It is dropped when, over
// dropWindow queries, it evaluates more than half the centers per query; the
// count starts again and the next build waits twice as long, until a merge
// round. It is never built on a space without metric.Pruner (CosineSpace,
// custom distances) or whose chain declines (AngularSpace): there it could
// only walk every group.
//
// Why 2*sqrt(k) pivots: the groups are smaller and their reaches shorter, so
// more of them are ruled out. On the benchmark's 16-dimensional drifting
// blobs at budget 320, sqrt(k) pivots evaluated about half the centers per
// query, so the drop rule fired after most builds; 2*sqrt(k) evaluated a
// quarter to two fifths of them, and 3*sqrt(k) saved little more. Extra memory is two float64 per center and pivot, about
// 32*k*sqrt(k) bytes (3 MB at k = 2048), plus a few words per center.

const (
	// minIndexed is the smallest center count the index is built for: below
	// it the pivots and groups cost about what one batched scan does.
	minIndexed = 64
	// dropWindow is the number of queries the drop rule averages over.
	dropWindow = 32
	// maxBackoff caps the doublings of the scan cost a rebuild waits for.
	maxBackoff = 10
)

// nearIndex is the pivot index over a Doubling's centers, which it refers to
// by their position in the centers slice.
type nearIndex struct {
	half metric.Pruner
	np   int // number of pivots

	piv    []int32          // piv[j]: the center pivot j is
	pivPts metric.Dataset   // and its point
	mem    [][]int32        // mem[j]: the other centers in pivot j's group, ascending
	memPts []metric.Dataset // and their points
	reach  []float64        // reach[j]: the largest surrogate from a member of group j to pivot j (-Inf while empty)
	bound  []float64        // bound[j]: Pruner.ReachBounds of reach[j], converted when it grows
	sv     []float64        // sv[b*np+j]: the computed surrogate between center b and pivot j
	thr    []float64        // thr[b*np+j]: sv[b*np+j] chained through reach[j]

	pivS []float64 // the last query's surrogates to the pivots, which add reads
	buf  []float64 // scratch: a group's surrogates, a column being refreshed
	fill []float64 // scratch: a refreshed column's reach bound, repeated

	queries, evals int // in the current drop window
}

// nearStats counts the index's transitions over a processor's life; the
// tests read them to know that every path ran.
type nearStats struct {
	builds, adds, refreshes, discards, drops int
}

// chainOf returns the space's pruning capability when its chain promises
// anything: probed on the clearest case there is, a point at distance one
// from a pivot that the whole group coincides with.
func chainOf(sp metric.Space, dim int) metric.Pruner {
	half := metric.PrunerOf(sp)
	if half == nil {
		return nil
	}
	s, r := []float64{sp.ToSurrogate(1)}, []float64{sp.ToSurrogate(0)}
	half.ReachBounds(r, dim)
	half.HalfSurrogatesVia(s, r, dim)
	if !(s[0] > math.Inf(-1)) {
		return nil
	}
	return half
}

// buildNearIndex indexes the centers pts, or returns nil when the space
// cannot prune or there are too few centers. It evaluates each pivot against
// every center, about 2*k*sqrt(k) evaluations.
func buildNearIndex(sp metric.Space, pts metric.Dataset) *nearIndex {
	k := len(pts)
	if k < minIndexed {
		return nil
	}
	dim := len(pts[0])
	half := chainOf(sp, dim)
	if half == nil {
		return nil
	}
	np := int(math.Ceil(2 * math.Sqrt(float64(k))))
	x := &nearIndex{half: half, np: np, sv: make([]float64, k*np)}

	// Farthest-first: the next pivot is the center farthest from the pivots
	// so far (lowest index on ties), and every center is in the group of the
	// pivot nearest to it so far (lowest pivot on ties).
	// A pivot's group is -1: it is in none and never the farthest.
	near, grp := make([]float64, k), make([]int32, k)
	row := make([]float64, k)
	v := 0
	for j := 0; j < np; j++ {
		x.piv, x.pivPts = append(x.piv, int32(v)), append(x.pivPts, pts[v])
		sp.DistancesTo(row, pts[v], pts)
		grp[v] = -1
		for b, s := range row {
			x.sv[b*np+j] = s
			if grp[b] >= 0 && (j == 0 || s < near[b]) {
				near[b], grp[b] = s, int32(j)
			}
		}
		v = -1
		far := math.Inf(-1)
		for b, s := range near {
			if grp[b] >= 0 && s > far {
				v, far = b, s
			}
		}
		if v < 0 && j+1 < np {
			return nil // every remaining center is a NaN away: nothing to index
		}
	}

	x.mem, x.memPts = make([][]int32, np), make([]metric.Dataset, np)
	x.reach = make([]float64, np)
	for j := range x.reach {
		x.reach[j] = math.Inf(-1)
	}
	for b, j := range grp {
		if j < 0 {
			continue
		}
		x.mem[j], x.memPts[j] = append(x.mem[j], int32(b)), append(x.memPts[j], pts[b])
		// math.Max keeps a NaN: that group's thresholds promise nothing.
		x.reach[j] = math.Max(x.reach[j], x.sv[b*np+int(j)])
	}
	x.bound = append([]float64(nil), x.reach...)
	half.ReachBounds(x.bound, dim)
	x.thr = append([]float64(nil), x.sv...)
	for b := 0; b < k; b++ {
		half.HalfSurrogatesVia(x.thr[b*np:(b+1)*np], x.bound, dim)
	}
	x.pivS = make([]float64, np)
	return x
}

// nearest returns ArgNearest(p, centers) for the k centers the index holds.
// keep is false when the drop rule says the index no longer pays.
func (x *nearIndex) nearest(sp metric.Space, p metric.Point, k int) (float64, int, bool) {
	sp.DistancesTo(x.pivS, p, x.pivPts)
	bs, bi, g := math.Inf(1), -1, -1
	for j, s := range x.pivS {
		if b := int(x.piv[j]); s < bs || (s == bs && b < bi) {
			bs, bi, g = s, b, j
		}
	}
	n := x.np
	if g >= 0 {
		bs, bi = x.walk(sp, p, g, bs, bi)
		n += len(x.mem[g])
	}
	for j, m := range x.mem {
		if j == g || len(m) == 0 || (bi >= 0 && bs < x.thr[bi*x.np+j]) {
			continue
		}
		bs, bi = x.walk(sp, p, j, bs, bi)
		n += len(m)
	}

	keep := true
	if x.queries, x.evals = x.queries+1, x.evals+n; x.queries == dropWindow {
		keep = 2*x.evals <= dropWindow*k
		x.queries, x.evals = 0, 0
	}
	return bs, bi, keep
}

// walk evaluates p against the members of group j and folds them into the
// best so far (bs, bi): a smaller surrogate wins, and an equal one wins when
// its center comes first.
func (x *nearIndex) walk(sp metric.Space, p metric.Point, j int, bs float64, bi int) (float64, int) {
	m := x.memPts[j]
	if cap(x.buf) < len(m) {
		x.buf = make([]float64, len(m), 2*len(m))
	}
	buf := x.buf[:len(m)]
	sp.DistancesTo(buf, p, m)
	for i, s := range buf {
		if b := int(x.mem[j][i]); s < bs || (s == bs && b < bi) {
			bs, bi = s, b
		}
	}
	return bs, bi
}

// add indexes p, the center at position b that the last query opened, with
// the surrogates that query computed against the pivots. It reports whether
// the group's reach grew, which recomputes the pivot's threshold column.
func (x *nearIndex) add(p metric.Point, b int) (refreshed bool) {
	g := 0
	for j, s := range x.pivS {
		if s < x.pivS[g] {
			g = j
		}
	}
	x.mem[g], x.memPts[g] = append(x.mem[g], int32(b)), append(x.memPts[g], p)
	dim := len(p)
	if r := math.Max(x.reach[g], x.pivS[g]); r != x.reach[g] {
		x.reach[g], x.bound[g] = r, r
		x.half.ReachBounds(x.bound[g:g+1], dim)
		x.refresh(g, dim)
		refreshed = true
	}
	x.sv = append(x.sv, x.pivS...)
	x.thr = append(x.thr, x.pivS...)
	x.half.HalfSurrogatesVia(x.thr[b*x.np:], x.bound, dim)
	return refreshed
}

// refresh recomputes the threshold column of pivot g after its reach grew.
func (x *nearIndex) refresh(g, dim int) {
	k := len(x.sv) / x.np
	if cap(x.buf) < k {
		x.buf = make([]float64, k, 2*k)
	}
	if cap(x.fill) < k {
		x.fill = make([]float64, k, 2*k)
	}
	col, fill := x.buf[:k], x.fill[:k]
	for b := range col {
		col[b], fill[b] = x.sv[b*x.np+g], x.bound[g]
	}
	x.half.HalfSurrogatesVia(col, fill, dim)
	for b, t := range col {
		x.thr[b*x.np+g] = t
	}
}

// nearest is the update rule's query: ArgNearest(p, d.pts), from the index
// when there is one, building it when the scans since the last structural
// change have cost about k^2 evaluations — twice that for every index
// dropped since, so that where the index cannot serve its builds cost a
// vanishing share of the scans — unless MergeDoublings is replaying.
func (d *Doubling) nearest(p metric.Point) (float64, int) {
	k := len(d.pts)
	if d.near == nil && !d.replaying && d.scanned >= k*k<<d.backoff {
		d.scanned = 0
		if d.near = buildNearIndex(d.space, d.pts); d.near != nil {
			d.nearStats.builds++
		}
	}
	if d.near == nil {
		d.scanned += k
		return d.space.ArgNearest(p, d.pts)
	}
	s, closest, keep := d.near.nearest(d.space, p, k)
	if !keep {
		d.backoff = min(d.backoff+1, maxBackoff)
		d.near = nil
		d.nearStats.drops++
	}
	return s, closest
}

// discardNear forgets the index: the centers are about to be renumbered.
func (d *Doubling) discardNear() {
	if d.near != nil {
		d.near = nil
		d.nearStats.discards++
	}
	d.scanned, d.backoff = 0, 0
}
