package streaming

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"coresetclustering/internal/metric"
)

// Doubling is the weighted doubling algorithm of Section 4: a 1-pass
// construction of a weighted coreset of at most tau points. It extends the
// incremental clustering algorithm of Charikar, Chekuri, Feder and Motwani
// (2004) with per-center weights so that the coreset can later be fed to the
// weighted OutliersCluster routine.
//
// The algorithm maintains (invariants (a)-(e) of the paper):
//
//	(a) at most tau centers;
//	(b) any two centers are more than 4*phi apart;
//	(c) every processed point is within 8*phi of its (implicit) proxy center;
//	(d) the weight of a center equals the number of processed points whose
//	    proxy it is;
//	(e) phi <= r*_tau(S), the optimal tau-center radius of the points
//	    processed so far.
//
// The per-point update rule asks for the nearest center over a maintained
// point view of the centers (no per-point allocations): the metric space's
// batched ArgNearest kernel while the centers are few or were just
// renumbered, and a pivot index (nearest.go) that evaluates only the centers
// the triangle inequality cannot rule out once the scans have cost about k^2
// evaluations — the same answer, bit for bit. The answer is compared with the
// rule's two true-distance limits, 8*phi and the largest finite float, in the
// surrogate domain, against limits converted once per value of phi
// (metric.SurrogateAtMost): the hot path pays no square root (Euclidean).
//
// Points are immutable once admitted: a processed point is retained by
// reference and its coordinates are never written, here or in any package
// built on this one. What a Doubling owns is the slice of (point, weight)
// headers — weights do change in place — so Clone, State, Coreset, restoring
// and merging copy headers and share the coordinate arrays.
type Doubling struct {
	space metric.Space
	tau   int

	centers metric.WeightedSet // headers owned by this processor; nil while buffering
	pts     metric.Dataset     // pts[i] == centers[i].P, maintained alongside
	phi     float64

	initBuf   metric.Dataset // first tau+1 points, buffered until initialisation
	processed int64

	near      *nearIndex // answers the update rule's query; nil while the plain scan does
	scanned   int        // evaluations the plain scan spent since the centers last changed structurally
	backoff   int        // indexes dropped since then (nearest.go)
	replaying bool       // MergeDoublings is replaying buffers into this processor: no index is built
	nearStats nearStats  // what the index did, for the tests

	lim limits // the update rule's limits in the surrogate domain
}

// limits are the update rule's two true-distance limits as surrogates, for
// the phi they were taken at: a nearest surrogate s is covered when
// s <= cover (FromSurrogate(s) <= 8*phi) and finite when s <= finite
// (FromSurrogate(s) <= math.MaxFloat64), exactly (metric.SurrogateAtMost).
type limits struct {
	set           bool
	phi           float64
	cover, finite float64
}

// NewDoublingIn returns a Doubling processor on the given metric space (nil
// defaults to Euclidean) with coreset budget tau (at least 1).
func NewDoublingIn(sp metric.Space, tau int) (*Doubling, error) {
	if tau < 1 {
		return nil, fmt.Errorf("streaming: tau must be at least 1, got %d", tau)
	}
	if sp == nil {
		sp = metric.EuclideanSpace
	}
	return &Doubling{space: sp, tau: tau}, nil
}

// Space returns the metric space the processor runs on.
func (d *Doubling) Space() metric.Space { return d.space }

// ErrNonFiniteDistance is the algorithm's one failure: a distance that is not
// finite leaves a point without a nearest center, or the merge rule without
// progress. No built-in space answers one on admitted points (MaxCoordinate).
var ErrNonFiniteDistance = errors.New("streaming: the metric space answered a non-finite distance")

// Process implements Processor. Past a nil point, it fails only with
// ErrNonFiniteDistance, and then leaves the processor as it was.
func (d *Doubling) Process(p metric.Point) error {
	if p == nil {
		return errors.New("streaming: nil point")
	}
	if d.centers != nil {
		// Update rule.
		if !d.lim.set || d.lim.phi != d.phi {
			d.lim = limits{
				set:    true,
				phi:    d.phi,
				cover:  metric.SurrogateAtMost(d.space, 8*d.phi),
				finite: metric.SurrogateAtMost(d.space, math.MaxFloat64),
			}
		}
		s, closest := d.nearest(p)
		if closest < 0 || !(s <= d.lim.finite) {
			return fmt.Errorf("%w: nearest center at %v", ErrNonFiniteDistance, d.space.FromSurrogate(s))
		}
		if s <= d.lim.cover {
			d.processed++
			d.centers[closest].W++
			return nil
		}
	} else if len(d.initBuf) < d.tau {
		// Initialisation: buffer the first tau+1 points.
		d.processed++
		d.initBuf = append(d.initBuf, p)
		return nil
	}
	// The point opens a center or completes the buffer, so the merge rule may
	// run; if it stalls, the state from before the point is put back.
	var undo *Doubling
	if d.centers == nil || len(d.centers) >= d.tau {
		undo = d.Clone()
	}
	d.processed++
	var err error
	if d.centers == nil {
		d.initBuf = append(d.initBuf, p)
		err = d.initialize()
	} else {
		d.centers = append(d.centers, metric.WeightedPoint{P: p, W: 1})
		d.pts = append(d.pts, p)
		if len(d.centers) > d.tau {
			err = d.mergeToBudget()
		} else if d.near != nil {
			d.nearStats.adds++
			if d.near.add(p, len(d.pts)-1) {
				d.nearStats.refreshes++
			}
		}
	}
	if err != nil {
		*d = *undo
	}
	return err
}

// initialize turns the buffered first tau+1 points into the initial weighted
// center set and applies the merge rule until invariants (a) and (b) hold.
//
// Its two merges are one sweep over the pairs and one walk over a few of
// them. The sweep that collapses duplicates also records every surviving
// pair within 4*halfOf(the minimum so far) — the phi the second merge will
// use, from a minimum that can only fall, so no pair that merge can take is
// missed — and the merge at 4*phi then reads only those pairs, in the order a
// sweep would meet them (mergeCloserThan).
func (d *Doubling) initialize() error {
	d.centers = metric.Unweighted(d.initBuf) // tau+1 headers: room for the update rule's append
	d.pts, d.initBuf = d.initBuf, nil
	// Collapse exact duplicates first so that coincident initial points do
	// not force phi to zero forever; the same sweep yields the survivors'
	// minimum pairwise distance.
	var pairs pairLog
	minDist := d.mergeCloserThan(0, &pairs)
	if len(d.centers) == 1 {
		// All initial points coincide: a single center remains and phi stays
		// zero until genuinely distinct points arrive (invariant (e) holds
		// with equality: r*_tau of a single location is 0).
		d.phi = 0
		return nil
	}
	if d.phi = halfOf(minDist); !(8*d.phi <= math.MaxFloat64) {
		return fmt.Errorf("%w: the initial points' minimum distance is %v", ErrNonFiniteDistance, minDist)
	}
	d.mergeCloserThan(4*d.phi, &pairs)
	return d.mergeToBudget()
}

// mergeToBudget applies the merge rule until invariant (a) holds again.
func (d *Doubling) mergeToBudget() error {
	for len(d.centers) > d.tau {
		if err := d.merge(); err != nil {
			return err
		}
	}
	return nil
}

// merge applies one round of the merge rule: double phi, then merge every
// pair of centers violating invariant (b). A zero phi (all points seen so far
// coincided) is bootstrapped from the minimum pairwise distance of the
// current centers, which is a valid lower bound on r*_tau because the centers
// now number tau+1.
//
// The variant that makes the rule terminate: every round removes a center or
// strictly raises phi while 8*phi stays finite. Phi can double only about
// 2100 times between the smallest positive float and overflow, so a round
// that can do neither is ErrNonFiniteDistance, not another iteration.
func (d *Doubling) merge() error {
	n, phi := len(d.centers), d.phi
	if phi == 0 {
		// At most tau+1 centers: the sequential engine path is the right one.
		d.phi = halfOf(metric.NewEngine(1).MinPairwiseDistance(d.space, d.pts))
	} else {
		d.phi *= 2
	}
	if 8*d.phi <= math.MaxFloat64 {
		d.mergeCloserThan(4*d.phi, nil)
		if len(d.centers) < n || d.phi > phi {
			return nil
		}
	}
	return fmt.Errorf("%w: the merge rule stalled at phi = %v with %d centers", ErrNonFiniteDistance, phi, n)
}

// halfOf is phi bootstrapped from a minimum pairwise distance: its half, or
// the smallest positive float when that underflows (a zero phi never doubles).
func halfOf(minDist float64) float64 {
	if h := minDist / 2; h > 0 || !(minDist > 0) {
		return h
	}
	return math.SmallestNonzeroFloat64
}

// mergeCloserThan greedily merges centers at distance <= threshold, folding
// the weight of the discarded center into the survivor (which corresponds to
// re-targeting the proxy function): scanning in order, a center is discarded
// into the first survivor within the threshold and survives otherwise. It
// returns the minimum true pairwise distance of the survivors (+Inf with
// fewer than two), which is what lets initialize and MergeDoublings fold
// duplicates and bootstrap phi in one triangular sweep.
//
// This is the O(n^2) part of the algorithm — every merge round, every
// initialisation, every union — so it runs on the batched kernel: each
// survivor evaluates one DistancesTo row against the centers after it. The
// row holds Surrogate(survivor, later), the argument order of the scalar rule
// Distance(survivor, candidate) and of MinPairwiseDistance, so nothing is
// asked of the space beyond the Space contract (in particular no bitwise
// symmetry). The threshold is the true distance invariant (b) states, decided
// in the surrogate domain: s <= metric.SurrogateAtMost(threshold) holds
// exactly when FromSurrogate(s) <= threshold, given only that FromSurrogate
// is monotone non-decreasing, so a pair costs a comparison and no conversion
// (no square root on Euclidean). The minimum is reduced in the surrogate
// domain and converted once. Survivors are compacted in place: the headers
// are owned.
//
// With a pairLog the sweep does one of two more things (initialize):
//   - an empty log records, row by row, every pair the sweep leaves apart
//     whose surrogate is at most SurrogateAtMost(4*halfOf(the minimum so
//     far)), renumbered as the survivors are;
//   - a recorded log stands in for the rows: the merge walks those pairs
//     only, in the order a sweep meets them, evaluates nothing and measures
//     no minimum (it returns +Inf). It merges what the sweep would: a pair it
//     does not hold was either taken by the first pass or is farther apart
//     than any threshold the recorded minimum can lead to.
//
// A log holds at most pairsPerCenter pairs per center. When it is full it
// drops the pairs the fallen minimum no longer admits, and if that frees less
// than a quarter of it, it is abandoned and the next merge sweeps all pairs:
// either way the merge is exact. Lattice inputs, where many pairs tie near
// the minimum, go that way; a drifting 16-dimensional stream at tau = 320
// records about 12 pairs per center, of which 3 or 4 are still admitted at
// the end.
func (d *Doubling) mergeCloserThan(threshold float64, pairs *pairLog) float64 {
	d.discardNear()
	limit := metric.SurrogateAtMost(d.space, threshold)
	walk := pairs != nil && pairs.ready
	record := pairs != nil && !walk && !pairs.full
	bound := math.NaN() // a pair is recorded when its surrogate is <= bound: none while NaN
	if record {
		bound = math.Inf(1) // before any minimum, every pair
	}
	n := len(d.centers)
	buf := make([]float64, 2*n)
	row, near := buf[:n], buf[n:] // near[j]: min surrogate from a survivor before j
	into := make([]int32, n)      // into[j]: the survivor j is discarded into, -1 while none
	for j := range near {
		near[j] = math.Inf(1)
		into[j] = -1
	}
	minS := math.Inf(1)
	kept, next := 0, 0
	for j, c := range d.centers {
		if t := into[j]; t >= 0 {
			d.centers[t].W += c.W
			continue
		}
		if near[j] < minS {
			minS = near[j]
			if record && !pairs.full {
				bound = metric.SurrogateAtMost(d.space, 4*halfOf(d.space.FromSurrogate(minS)))
			}
		}
		d.centers[kept], d.pts[kept] = c, c.P
		if walk {
			for next < len(pairs.a) && int(pairs.a[next]) < j {
				next++ // the row of a center this walk discarded
			}
			for ; next < len(pairs.a) && int(pairs.a[next]) == j; next++ {
				if l := pairs.b[next]; into[l] < 0 && pairs.s[next] <= limit {
					into[l] = int32(kept)
				}
			}
			kept++
			continue
		}
		r := row[j+1:]
		d.space.DistancesTo(r, c.P, d.pts[j+1:])
		for l, s := range r {
			l += j + 1
			switch {
			case into[l] >= 0:
			case s <= limit:
				into[l] = int32(kept)
			default:
				if s < near[l] {
					near[l] = s
				}
				if s <= bound {
					bound = pairs.add(int32(kept), int32(l), s, bound, n)
				}
			}
		}
		kept++
	}
	if record && !pairs.full {
		pairs.renumber(into)
	}
	clear(d.centers[kept:]) // drop the references to the discarded points
	clear(d.pts[kept:])
	d.centers, d.pts = d.centers[:kept], d.pts[:kept]
	return d.space.FromSurrogate(minS)
}

// pairsPerCenter caps a pairLog at pairsPerCenter*n pairs of 16 bytes for n
// centers: 80 KiB at tau = 320, 512 KiB at tau = 2048, held for one
// initialisation.
const pairsPerCenter = 16

// pairLog carries the pairs one mergeCloserThan sweep records to the merge
// that follows it. Pair i is (a[i], b[i]) at surrogate s[i], a the survivor
// whose row it is, in row order and ascending b within a row.
type pairLog struct {
	a, b  []int32
	s     []float64
	ready bool // recorded, renumbered: the next merge walks it
	full  bool // abandoned past its cap: the next merge sweeps
}

// add records a pair and returns the bound to record under from now on: the
// same, or NaN once the log is abandoned.
func (pl *pairLog) add(a, b int32, s, bound float64, n int) float64 {
	if len(pl.s) == pairsPerCenter*n {
		k := 0
		for i, v := range pl.s {
			if v <= bound {
				pl.a[k], pl.b[k], pl.s[k] = pl.a[i], pl.b[i], v
				k++
			}
		}
		pl.a, pl.b, pl.s = pl.a[:k], pl.b[:k], pl.s[:k]
		if 4*k > 3*pairsPerCenter*n {
			*pl = pairLog{full: true}
			return math.NaN()
		}
	}
	pl.a, pl.b, pl.s = append(pl.a, a), append(pl.b, b), append(pl.s, s)
	return bound
}

// renumber gives the recorded pairs' later centers their indices among the
// survivors of the sweep that recorded them (into[l] >= 0 marks l
// discarded; into is overwritten) and drops the pairs whose later center a
// survivor after the recording one took.
func (pl *pairLog) renumber(into []int32) {
	k := int32(0)
	for j, t := range into {
		if t < 0 {
			into[j], k = k, k+1
		} else {
			into[j] = -1
		}
	}
	m := 0
	for i, b := range pl.b {
		if nb := into[b]; nb >= 0 {
			pl.a[m], pl.b[m], pl.s[m] = pl.a[i], nb, pl.s[i]
			m++
		}
	}
	pl.a, pl.b, pl.s = pl.a[:m], pl.b[:m], pl.s[:m]
	pl.ready = true
}

// Clone returns an independent copy of the processor: the copy and the
// original can keep processing points and neither observes the other's
// mutations. The copy has its own headers (weights, order, buffer) and shares
// the immutable coordinate arrays and the metric space, so a clone costs
// O(tau) header words whatever the dimension — this is what the daemon's
// copy-on-write query views are built from.
func (d *Doubling) Clone() *Doubling {
	cp := *d
	cp.near = nil
	// slices.Clone keeps nil nil: centers' nil-ness is semantic (still
	// buffering).
	cp.centers = slices.Clone(d.centers)
	cp.pts = slices.Clone(d.pts)
	cp.initBuf = slices.Clone(d.initBuf)
	return &cp
}

// DoublingState is the complete, self-contained state of a Doubling
// processor: everything needed to serialize it, move it across machines, and
// resume (or merge) it elsewhere. Before initialisation (fewer than tau+1
// points processed) Points holds the buffered raw points with unit weights;
// after initialisation it holds the weighted centers.
type DoublingState struct {
	// Tau is the coreset budget.
	Tau int
	// Phi is the current lower bound on r*_tau of the processed prefix
	// (meaningful only when Initialized).
	Phi float64
	// Processed is the number of points consumed so far.
	Processed int64
	// Initialized reports whether the initial buffering phase has completed.
	Initialized bool
	// Points are the weighted centers (Initialized) or the unit-weight
	// buffered prefix (not Initialized).
	Points metric.WeightedSet
}

// State returns the processor's state, suitable for serialization: Points is
// a fresh header slice over the shared coordinate arrays. The processor can
// keep being used afterwards.
func (d *Doubling) State() DoublingState {
	return DoublingState{
		Tau:         d.tau,
		Phi:         d.phi,
		Processed:   d.processed,
		Initialized: d.Initialized(),
		Points:      d.Coreset(),
	}
}

// Validate checks a state structurally: a budget of at least 1; a finite,
// non-negative phi, zero while buffering; at most tau points, each admitted
// by CheckPoint and positively weighted — unit weights while buffering, at
// least one point after — with the weights summing to the processed count
// (invariant (d)).
func (st DoublingState) Validate() error {
	switch {
	case st.Tau < 1:
		return fmt.Errorf("streaming: state: tau must be at least 1, got %d", st.Tau)
	case math.IsNaN(st.Phi) || math.IsInf(st.Phi, 0) || st.Phi < 0 || (!st.Initialized && st.Phi != 0):
		return fmt.Errorf("streaming: state: invalid phi %v", st.Phi)
	case len(st.Points) > st.Tau:
		return fmt.Errorf("streaming: state: %d points exceed tau=%d", len(st.Points), st.Tau)
	case st.Initialized && len(st.Points) == 0:
		return errors.New("streaming: state: initialised with no centers")
	}
	var total int64
	for i, wp := range st.Points {
		if err := CheckPoint(wp.P, len(st.Points[0].P)); err != nil {
			return fmt.Errorf("streaming: state: point %d: %w", i, err)
		}
		if wp.W <= 0 || (!st.Initialized && wp.W != 1) {
			return fmt.Errorf("streaming: state: point %d has weight %d", i, wp.W)
		}
		if total += wp.W; total < 0 {
			return errors.New("streaming: state: weight sum overflows")
		}
	}
	if total != st.Processed {
		return fmt.Errorf("streaming: state: weights sum to %d, processed %d", total, st.Processed)
	}
	return nil
}

// RestoreDoublingIn reconstructs a Doubling processor on the given metric
// space (nil defaults to Euclidean) from a previously captured state, which
// must pass Validate. The processor takes its own copy of the headers and
// shares the coordinate arrays, which the caller must not write afterwards.
func RestoreDoublingIn(sp metric.Space, st DoublingState) (*Doubling, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if sp == nil {
		sp = metric.EuclideanSpace
	}
	d := &Doubling{space: sp, tau: st.Tau, phi: st.Phi, processed: st.Processed}
	if !st.Initialized {
		d.initBuf = st.Points.Points()
		return d, nil
	}
	d.centers = slices.Clone(st.Points)
	d.pts = d.centers.Points()
	return d, nil
}

// MergeDoublings unions the state of two or more Doubling processors built on
// independent shards of a stream and re-establishes the coreset budget with
// the merge rule — the streaming counterpart of the paper's composable
// coreset union. All processors must share the same budget tau and (by
// contract) the same metric space; the first processor's space is used.
//
// The merged phi starts at the maximum of the inputs' phis, which preserves
// invariant (c) (every original point is within 8*phi of a surviving proxy).
// Because centers from different shards can lie arbitrarily close together,
// one extra merge-rule round is applied when the union violates invariant (b)
// (some pair within 4*phi), so the result satisfies all structural invariants
// and can keep processing points like any single-stream state. The merge is
// fully sequential and depends only on the argument order, never on worker
// counts.
func MergeDoublings(ds ...*Doubling) (*Doubling, error) {
	if len(ds) == 0 {
		return nil, errors.New("streaming: nothing to merge")
	}
	for i, d := range ds {
		if d == nil {
			return nil, fmt.Errorf("streaming: merge: nil processor at position %d", i)
		}
	}
	tau := ds[0].tau
	sp := ds[0].space
	anyInitialized := false
	for i, d := range ds {
		if d.tau != tau {
			return nil, fmt.Errorf("streaming: merge: budget mismatch: tau=%d at position %d, want %d", d.tau, i, tau)
		}
		if d.centers != nil {
			anyInitialized = true
		}
	}
	if !anyInitialized {
		// Every shard is still buffering: replaying the raw points through a
		// fresh processor reproduces the exact single-stream semantics. The
		// replay builds no pivot index: its tail is at most a budget of points
		// and its output is sealed or serialised, so an index would be built
		// for a few queries and dropped. A caller that keeps processing gets
		// one at its first point, the scans having long paid for it.
		out, err := NewDoublingIn(sp, tau)
		if err != nil {
			return nil, err
		}
		out.replaying = true
		for _, d := range ds {
			for _, p := range d.initBuf {
				if err := out.Process(p); err != nil {
					return nil, err
				}
			}
		}
		out.replaying = false
		return out, nil
	}
	var phi float64
	var processed int64
	size := 0
	for _, d := range ds {
		processed += d.processed
		size += d.WorkingMemory()
		if d.centers != nil && d.phi > phi {
			phi = d.phi
		}
	}
	union := make(metric.WeightedSet, 0, size)
	for _, d := range ds {
		union = d.AppendCoreset(union)
	}
	out := &Doubling{space: sp, tau: tau, centers: union, pts: union.Points(), phi: phi, processed: processed}
	// Collapse exact duplicates across shards (free: zero-distance merges
	// never hurt coverage); the same sweep measures the survivors' minimum
	// pairwise distance.
	minDist := out.mergeCloserThan(0, nil)
	// Centers from different shards can lie arbitrarily close together, so
	// the union can violate invariant (b) even when it fits the budget. One
	// merge-rule round restores it: phi doubles, the shards' 8*phi coverage
	// becomes 4*phi_new, and collapsing pairs within 4*phi_new displaces a
	// proxy by at most another 4*phi_new — so (c) still holds at 8*phi_new,
	// and the survivors are pairwise more than 4*phi_new apart by
	// construction.
	if minDist <= 4*out.phi {
		if err := out.merge(); err != nil {
			return nil, err
		}
	}
	// Then apply the merge rule until the budget holds.
	if err := out.mergeToBudget(); err != nil {
		return nil, err
	}
	return out, nil
}

// WorkingMemory implements Processor.
func (d *Doubling) WorkingMemory() int {
	if d.centers == nil {
		return len(d.initBuf)
	}
	return len(d.centers)
}

// Processed implements Processor.
func (d *Doubling) Processed() int64 { return d.processed }

// Phi returns the current lower bound phi on r*_tau of the processed prefix.
func (d *Doubling) Phi() float64 { return d.phi }

// Initialized reports whether the initial buffering phase has completed.
func (d *Doubling) Initialized() bool { return d.centers != nil }

// Coreset returns the current weighted coreset. If fewer than tau+1 points
// have been processed the buffered points are returned with unit weights.
// The returned headers are the caller's (weights and order can be changed
// freely); the coordinate arrays are shared and must not be written.
func (d *Doubling) Coreset() metric.WeightedSet {
	return d.AppendCoreset(make(metric.WeightedSet, 0, d.WorkingMemory()))
}

// AppendCoreset appends the headers of Coreset to dst and returns the
// extended slice, for callers assembling a union of several coresets in one
// pre-sized slice.
func (d *Doubling) AppendCoreset(dst metric.WeightedSet) metric.WeightedSet {
	if d.centers != nil {
		return append(dst, d.centers...)
	}
	for _, p := range d.initBuf {
		dst = append(dst, metric.WeightedPoint{P: p, W: 1})
	}
	return dst
}

// AppendPoints appends the points of Coreset, without their weights, to dst.
func (d *Doubling) AppendPoints(dst metric.Dataset) metric.Dataset {
	if d.centers != nil {
		return append(dst, d.pts...)
	}
	return append(dst, d.initBuf...)
}

// Tau returns the configured coreset budget.
func (d *Doubling) Tau() int { return d.tau }

// CheckInvariants verifies the structural invariants (a), (b) and (d)
// (non-negative weights summing to the processed count). It is exported for
// tests and debugging; it is never called on the hot path.
func (d *Doubling) CheckInvariants() error {
	if d.centers == nil {
		return nil // still initialising
	}
	if len(d.centers) > d.tau {
		return fmt.Errorf("streaming: invariant (a) violated: %d centers > tau=%d", len(d.centers), d.tau)
	}
	pts := d.pts
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d.space.Distance(pts[i], pts[j]) <= 4*d.phi {
				return fmt.Errorf("streaming: invariant (b) violated: centers %d and %d are within 4*phi", i, j)
			}
		}
	}
	var total int64
	for _, c := range d.centers {
		if c.W <= 0 {
			return fmt.Errorf("streaming: invariant (d) violated: non-positive weight %d", c.W)
		}
		total += c.W
	}
	if total != d.processed {
		return fmt.Errorf("streaming: invariant (d) violated: weights sum to %d, processed %d", total, d.processed)
	}
	return nil
}
