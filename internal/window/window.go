// Package window implements sliding-window k-center clustering (with and
// without outliers) on top of the streaming doubling coresets.
//
// The paper's streaming algorithms are insertion-only: once observed, a point
// influences the coreset forever. This package restricts the summary to the
// most recent part of the stream — the last W points (count window), the last
// D time units (duration window), or both — by decomposing the stream into a
// ring of timestamped buckets, each holding an independent doubling-coreset
// state (streaming.Doubling) over a contiguous slice of the stream.
//
// Bucket maintenance follows the exponential-histogram discipline of
// Datar, Gionis, Indyk and Motwani (2002): level-0 buckets are sealed every
// Base points, and whenever more than Chi buckets of one level exist, the two
// oldest are coalesced into a bucket of the next level. Bucket sizes
// therefore grow geometrically towards the past, the live bucket count is at
// most Chi per level — O(Chi * log(W / Base)) overall — and, because every
// bucket retains at most Tau points, working memory is O(Tau * log W).
//
// Coalescing unions the two buckets' weighted coresets and, only when the
// union exceeds the budget, reduces it with a weighted farthest-point (GMM)
// selection, folding each dropped point's weight into its nearest survivor —
// the paper's composable-coreset reduction. The coverage slack this costs is
// ADDITIVE: the merged bucket's phi is the inputs' maximum plus the measured
// GMM selection radius (divided by 8, so the "every summarised point within
// 8*phi of its proxy" reading of invariant (c) is preserved). The doubling
// algorithm's own merge rule — double phi, collapse centers closer than
// 4*phi — must NOT be used here: under repeated hierarchical merging its phi
// grows by 2x per level, i.e. 2^levels overall, until 4*phi swallows the
// real cluster separation and the whole window collapses into one center.
// (MergeDoublings keeps that behaviour for its original one-shot sharding
// use; this package only reuses its exact raw-replay path for buckets that
// are still buffering.) Sealed buckets never process further points, so they
// do not need the resumption invariants (b)/(e) — they are pure weighted
// coresets with an honest coverage radius.
//
// Eviction drops a bucket exactly when its newest element has left the
// window, so the live buckets always cover a superset of the requested window
// that exceeds it by at most the span of the oldest live bucket (the standard
// exponential-histogram granularity). Queries take the plain weighted UNION
// of the live bucket coresets — O(Tau * log W) points, the working set the
// memory bound already pays for — and run extraction (GMM, or the weighted
// outlier search) directly on it, exactly the paper's round-2-on-the-
// coreset-union pattern; no further lossy reduction is applied on the query
// path.
//
// Determinism contract: all bucket transitions are driven only by observed
// counts and explicitly supplied timestamps — the package never reads a
// clock — the coalescing and query-time merges are fully sequential with a
// fixed argument order, and the extraction step runs on the worker-count
// invariant distance engine. Results are therefore bit-identical across
// worker counts and across a snapshot -> restore round-trip.
//
// Points are immutable once observed (see streaming.Doubling), and nothing in
// this package writes a coordinate. Open and replayed buckets, clones and
// query unions hold headers over the caller's coordinate arrays. A bucket
// built by a reduction instead owns one block holding its survivors' rows in
// coreset order, copied once when it is built. So only the unreduced buckets
// pin caller arrays: at most chi buckets per level below the first reduced
// level, plus the open one, a run of at most chi*base*15 + base recent points
// at the default base tau/4, whatever W is. The query-time union then reads
// about one dense block per live bucket instead of rows scattered over the
// whole window.
package window

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/streaming"
)

// Typed errors reported by the window subsystem.
var (
	// The timestamp half of the streaming admission rule.
	ErrTimestampOrder    = streaming.ErrTimestampOrder
	ErrNegativeTimestamp = streaming.ErrNegativeTimestamp
	// ErrEmptyWindow is returned by query methods when every bucket has been
	// evicted (or nothing was ever observed): there are no live points to
	// summarise.
	ErrEmptyWindow = errors.New("window: no live points in the window")
)

// DefaultChi is the default per-level bucket capacity: the window may exceed
// its nominal bound by at most the span of the oldest live bucket, roughly a
// 1/Chi fraction of the window.
const DefaultChi = 4

// maxLevel bounds bucket levels; a level-62 bucket would summarise 2^62*Base
// points, far beyond any real stream, so hitting the bound is a logic error.
const maxLevel = 62

// Config parameterises a Window.
type Config struct {
	// Space is the metric space (nil defaults to Euclidean).
	Space metric.Space
	// Tau is the per-bucket (and merged-query) coreset budget, at least 1.
	Tau int
	// MaxCount keeps the last MaxCount points (0 = no count bound).
	MaxCount int64
	// MaxAge keeps points whose timestamp ts satisfies ts > now-MaxAge (the
	// half-open window (now-MaxAge, now], where now is the newest observed
	// or advanced-to timestamp), in the caller's timestamp units (0 = no
	// time bound). At least one of MaxCount and MaxAge must be positive.
	MaxAge int64
	// Chi is the per-level bucket capacity (default DefaultChi). Larger Chi
	// tracks the window boundary more tightly at the cost of more buckets.
	Chi int
	// Base is the number of points a level-0 bucket accumulates before it is
	// sealed (default max(1, Tau/4)). Larger bases amortise coalescing work
	// over more points.
	Base int
}

// bucket is one node of the ring: an independent doubling-coreset state over
// the contiguous stream slice [startSeq, endSeq), observed during
// [startTS, endTS].
type bucket struct {
	proc  *streaming.Doubling
	level int   // sealed size class: a sealed level-L bucket holds Base<<L points
	count int64 // points summarised (== proc.Processed())

	startSeq, endSeq int64 // [startSeq, endSeq) stream sequence numbers
	startTS, endTS   int64 // timestamps of the oldest and newest point
}

// Window maintains a sliding-window coreset over a stream of timestamped
// points. It is not safe for concurrent use; callers serialise access (the
// daemon wraps every stream in a mutex).
type Window struct {
	space    metric.Space
	tau      int
	chi      int
	base     int
	maxCount int64
	maxAge   int64

	sealed []*bucket // oldest first; levels non-increasing
	open   *bucket   // level-0 bucket still accumulating (nil when none)

	seq    int64 // total points observed over the window's lifetime
	lastTS int64 // newest observed (or advanced-to) timestamp
	dim    int   // fixed by the first point (0 = not yet known)

	evictedBuckets int64 // lifetime count of buckets dropped by evict
	evictedPoints  int64 // lifetime count of points inside those buckets
}

// New validates the configuration and returns an empty Window.
func New(cfg Config) (*Window, error) {
	if cfg.Tau < 1 {
		return nil, fmt.Errorf("window: tau must be at least 1, got %d", cfg.Tau)
	}
	if cfg.MaxCount < 0 || cfg.MaxAge < 0 {
		return nil, fmt.Errorf("window: negative window bound (count=%d age=%d)", cfg.MaxCount, cfg.MaxAge)
	}
	if cfg.MaxCount == 0 && cfg.MaxAge == 0 {
		return nil, errors.New("window: either a count or a duration bound is required")
	}
	chi := cfg.Chi
	if chi == 0 {
		chi = DefaultChi
	}
	if chi < 1 {
		return nil, fmt.Errorf("window: chi must be at least 1, got %d", chi)
	}
	base := cfg.Base
	if base == 0 {
		base = cfg.Tau / 4
		if base < 1 {
			base = 1
		}
	}
	if base < 1 {
		return nil, fmt.Errorf("window: base must be at least 1, got %d", base)
	}
	sp := cfg.Space
	if sp == nil {
		sp = metric.EuclideanSpace
	}
	return &Window{
		space:    sp,
		tau:      cfg.Tau,
		chi:      chi,
		base:     base,
		maxCount: cfg.MaxCount,
		maxAge:   cfg.MaxAge,
	}, nil
}

// Observe consumes the next point of the stream at the given timestamp.
// Timestamps are non-negative ticks in caller-defined units and must be
// non-decreasing across calls; for purely count-based windows they may all be
// zero. The point and timestamp pass the streaming admission rule
// (streaming.CheckPoint, streaming.CheckTimestamp) before any state changes,
// so a rejected point never perturbs the window.
func (w *Window) Observe(p metric.Point, ts int64) error {
	if err := streaming.CheckPoint(p, w.dim); err != nil {
		return err
	}
	if err := streaming.CheckTimestamp(ts, w.lastTS); err != nil {
		return err
	}
	if w.open == nil {
		proc, err := streaming.NewDoublingIn(w.space, w.tau)
		if err != nil {
			return err
		}
		w.open = &bucket{proc: proc, startSeq: w.seq, startTS: ts}
	}
	if err := w.open.proc.Process(p); err != nil {
		return err
	}
	w.dim = p.Dim()
	w.seq++
	w.lastTS = ts
	w.open.count++
	w.open.endSeq = w.seq
	w.open.endTS = ts
	if w.open.count >= int64(w.base) {
		w.sealed = append(w.sealed, w.open)
		w.open = nil
		if err := w.coalesce(); err != nil {
			return err
		}
	}
	w.evict()
	return nil
}

// Advance moves the window's notion of "now" forward to ts without observing
// a point, evicting buckets that fall out of a duration window. It is how a
// caller expires stale data during a lull in the stream; like Observe, it
// never reads a clock. Advancing to a timestamp earlier than the newest
// observed one is ErrTimestampOrder.
func (w *Window) Advance(ts int64) error {
	if err := streaming.CheckTimestamp(ts, w.lastTS); err != nil {
		return err
	}
	w.lastTS = ts
	w.evict()
	return nil
}

// Clone returns a copy-on-write copy of the window: the copy and the original
// answer queries and keep observing points independently. Sealed buckets are
// IMMUTABLE once sealed — Observe only mutates the open bucket, coalesce
// builds new buckets instead of editing old ones, and evict merely drops
// references — so the clone shares the sealed buckets and clones only the
// open one (its headers; coordinates are shared everywhere). The cost is
// O(chi * log W) pointer copies plus at most one small (level-0, < Base
// points) doubling clone, which is what makes per-mutation view publication
// affordable for the daemon.
func (w *Window) Clone() *Window {
	cp := *w
	cp.sealed = slices.Clone(w.sealed)
	if w.open != nil {
		ob := *w.open
		ob.proc = w.open.proc.Clone()
		cp.open = &ob
	}
	return &cp
}

// coalesce re-establishes the exponential-histogram invariant: at most chi
// sealed buckets per level. Whenever a level overflows, the two oldest
// buckets of that level (adjacent, because levels are non-increasing towards
// the present) merge into one bucket of the next level.
func (w *Window) coalesce() error {
	for {
		i := w.overfullOldest()
		if i < 0 {
			return nil
		}
		a, b := w.sealed[i], w.sealed[i+1]
		if b.level != a.level {
			return fmt.Errorf("window: internal error: level-%d bucket adjacent to level-%d during coalesce", a.level, b.level)
		}
		if a.level >= maxLevel {
			return fmt.Errorf("window: bucket level %d exceeds maximum", a.level)
		}
		proc, err := w.mergeBucketStates(a.proc, b.proc)
		if err != nil {
			return err
		}
		w.sealed[i] = &bucket{
			proc:     proc,
			level:    a.level + 1,
			count:    a.count + b.count,
			startSeq: a.startSeq,
			endSeq:   b.endSeq,
			startTS:  a.startTS,
			endTS:    b.endTS,
		}
		w.sealed = append(w.sealed[:i+1], w.sealed[i+2:]...)
	}
}

// mergeBucketStates combines two sealed buckets' doubling states into one
// state under the budget, with ADDITIVE coverage slack (see the package
// comment for why the doubling merge rule must not be used here).
//
//   - Both still buffering: replay the raw points — exact, zero loss (this is
//     MergeDoublings' own buffering path).
//   - Union fits the budget: keep every weighted point (exact duplicates
//     folded); phi is the inputs' maximum, so coverage is unchanged.
//   - Union exceeds the budget: select tau survivors with the deterministic
//     farthest-point greedy and fold each dropped point's weight into its
//     nearest survivor (lowest index on ties). Every dropped point lies
//     within the measured selection radius r of a survivor, so the merged
//     phi is phiSrc + r/8: invariant (c) — every summarised point within
//     8*phi of its proxy — holds at 8*phiSrc + r <= 8*phi_new.
//
// The merge is fully sequential and depends only on the argument order.
func (w *Window) mergeBucketStates(a, b *streaming.Doubling) (*streaming.Doubling, error) {
	if !a.Initialized() && !b.Initialized() {
		return streaming.MergeDoublings(a, b)
	}
	phiSrc := max(a.Phi(), b.Phi())
	union := make(metric.WeightedSet, 0, a.WorkingMemory()+b.WorkingMemory())
	union = foldDuplicates(b.AppendCoreset(a.AppendCoreset(union)), coordHash)
	pts := union.Points()
	if len(union) > w.tau {
		res, err := gmm.Runner{Space: w.space, Workers: 1}.Run(pts, w.tau, 0)
		if err != nil {
			return nil, err
		}
		folded := make(metric.WeightedSet, len(res.Centers))
		for i, wp := range union {
			folded[res.Assignment[i]].W += wp.W
		}
		union, pts = folded, res.Centers
		phiSrc += float64(res.Radius / 8) // rounded apart: no fused multiply-add on arm64
	}
	// The reduced bucket owns its survivors: one block in coreset order, never
	// written afterwards. Its inputs' rows lie scattered over every batch
	// array they arrived in; the copy lets those arrays go and gives the
	// query-time union and the next coalesce's GMM dense rows to scan.
	for i, p := range pts.Clone() {
		union[i].P = p
	}
	return streaming.RestoreDoublingIn(w.space, streaming.DoublingState{
		Tau:         w.tau,
		Phi:         phiSrc,
		Processed:   a.Processed() + b.Processed(),
		Initialized: true,
		Points:      union,
	})
}

// foldDuplicates folds coincident points into one weighted entry (first
// occurrence wins), preserving order and total weight, in place. A point
// looks up the earlier entries with its hash (coordHash; the tests pass
// hashes that collide) in an open-addressing table of more than twice as
// many slots as points — at most 2*tau+2 points, so 8 bytes per point and 4
// per slot, dropped on return — and Point.Equal confirms each candidate, so
// a collision costs a comparison, never a wrong fold.
func foldDuplicates(set metric.WeightedSet, hash func(metric.Point) uint64) metric.WeightedSet {
	bitsLen := bits.Len(uint(2 * len(set)))
	slots := make([]int32, 1<<bitsLen) // 1 + the entry of out holding the slot, 0 when empty
	mask, shift := uint64(len(slots)-1), uint(64-bitsLen)
	hashes := make([]uint64, 0, len(set)) // hashes[i]: out[i]'s
	out := set[:0]
	for _, wp := range set {
		h := hash(wp.P)
		for i := h >> shift; ; i = (i + 1) & mask {
			e := slots[i] - 1
			if e < 0 {
				slots[i] = int32(len(out) + 1)
				hashes = append(hashes, h)
				out = append(out, wp)
				break
			}
			if hashes[e] == h && out[e].P.Equal(wp.P) {
				out[e].W += wp.W
				break
			}
		}
	}
	return out
}

// coordHash hashes a point's coordinate bits, a zero as +0 (Point.Equal
// does not tell -0 from +0), multiplicatively: the table indexes by the top
// bits, which every coordinate bit reaches.
func coordHash(p metric.Point) uint64 {
	h := uint64(len(p))
	for _, c := range p {
		b := math.Float64bits(c)
		if c == 0 {
			b = 0
		}
		h = (h ^ b) * 0x9e3779b97f4a7c15
	}
	return h
}

// overfullOldest returns the index of the oldest sealed bucket of the lowest
// level holding more than chi buckets, or -1 when the invariant holds.
func (w *Window) overfullOldest() int {
	var counts [maxLevel + 2]int
	var first [maxLevel + 2]int
	for i := range first {
		first[i] = -1
	}
	for i, b := range w.sealed {
		if first[b.level] < 0 {
			first[b.level] = i
		}
		counts[b.level]++
	}
	for lvl := range counts {
		if counts[lvl] > w.chi {
			return first[lvl]
		}
	}
	return -1
}

// expired reports whether every point of the bucket lies outside the window:
// its newest element is older than the count bound or the duration bound.
func (w *Window) expired(b *bucket) bool {
	if w.maxCount > 0 && b.endSeq <= w.seq-w.maxCount {
		return true
	}
	if w.maxAge > 0 && b.endTS <= w.lastTS-w.maxAge {
		return true
	}
	return false
}

// evict drops buckets whose newest element has left the window. Only whole
// buckets are dropped (coreset states cannot forget individual points), so
// the live set covers the requested window plus at most the oldest live
// bucket's span.
func (w *Window) evict() {
	cut := 0
	for cut < len(w.sealed) && w.expired(w.sealed[cut]) {
		w.evictedBuckets++
		w.evictedPoints += w.sealed[cut].count
		cut++
	}
	if cut > 0 {
		n := copy(w.sealed, w.sealed[cut:])
		for i := n; i < len(w.sealed); i++ {
			w.sealed[i] = nil // release for GC
		}
		w.sealed = w.sealed[:n]
	}
	// The open bucket contains the newest point whenever the last mutation
	// was an Observe, but a duration window advanced past it expires it too.
	if w.open != nil && w.expired(w.open) {
		w.evictedBuckets++
		w.evictedPoints += w.open.count
		w.open = nil
	}
}

// live returns the live buckets oldest-first (sealed, then the open one).
func (w *Window) live() []*bucket {
	out := make([]*bucket, 0, len(w.sealed)+1)
	out = append(out, w.sealed...)
	if w.open != nil {
		out = append(out, w.open)
	}
	return out
}

// Coreset returns the weighted union of the live buckets' coresets, oldest
// bucket first — a coreset of exactly the live-bucket points, O(tau * log W)
// entries, every live point within CoverageBound of some entry. No lossy
// reduction happens here: query-time extraction runs directly on this union,
// the paper's round-2 pattern. Coincident points across buckets are NOT
// folded — extraction handles split weights identically, and a quadratic
// dedup over the whole union would dominate query time at large windows.
// A query costs one pre-sized copy of the headers: they are the caller's,
// the coordinate arrays are shared and must not be written.
func (w *Window) Coreset() (metric.WeightedSet, error) {
	n := w.WorkingMemory()
	if n == 0 {
		return nil, ErrEmptyWindow
	}
	union := make(metric.WeightedSet, 0, n)
	for _, b := range w.live() {
		union = b.proc.AppendCoreset(union)
	}
	return union, nil
}

// Points is Coreset without the weights, for the extraction that ignores
// them (GMM).
func (w *Window) Points() (metric.Dataset, error) {
	n := w.WorkingMemory()
	if n == 0 {
		return nil, ErrEmptyWindow
	}
	pts := make(metric.Dataset, 0, n)
	for _, b := range w.live() {
		pts = b.proc.AppendPoints(pts)
	}
	return pts, nil
}

// CoverageBound returns the radius within which every live point has a proxy
// in Coreset(): 8x the largest live bucket phi (0 for an empty window).
func (w *Window) CoverageBound() float64 {
	var phi float64
	for _, b := range w.live() {
		if p := b.proc.Phi(); p > phi {
			phi = p
		}
	}
	return 8 * phi
}

// Space returns the metric space the window runs on.
func (w *Window) Space() metric.Space { return w.space }

// Tau returns the coreset budget.
func (w *Window) Tau() int { return w.tau }

// Chi returns the per-level bucket capacity.
func (w *Window) Chi() int { return w.chi }

// Base returns the level-0 bucket size.
func (w *Window) Base() int { return w.base }

// MaxCount returns the count bound (0 = none).
func (w *Window) MaxCount() int64 { return w.maxCount }

// MaxAge returns the duration bound (0 = none).
func (w *Window) MaxAge() int64 { return w.maxAge }

// Observed returns the total number of points consumed over the window's
// lifetime (evicted ones included).
func (w *Window) Observed() int64 { return w.seq }

// Now returns the newest observed (or advanced-to) timestamp.
func (w *Window) Now() int64 { return w.lastTS }

// Dim returns the point dimensionality (0 until the first point).
func (w *Window) Dim() int { return w.dim }

// LiveBuckets returns the number of live buckets.
func (w *Window) LiveBuckets() int {
	n := len(w.sealed)
	if w.open != nil {
		n++
	}
	return n
}

// LivePoints returns the number of stream points summarised by the live
// buckets — the size of the set a query answers over.
func (w *Window) LivePoints() int64 {
	var n int64
	for _, b := range w.live() {
		n += b.count
	}
	return n
}

// EvictedBuckets returns the lifetime count of buckets dropped because every
// one of their points left the window.
func (w *Window) EvictedBuckets() int64 { return w.evictedBuckets }

// EvictedPoints returns the lifetime count of stream points inside evicted
// buckets. Points still summarised by a live bucket are not counted even when
// they individually lie outside the window bound (eviction is whole-bucket).
func (w *Window) EvictedPoints() int64 { return w.evictedPoints }

// LiveRange returns the contiguous sequence-number range [start, end) covered
// by the live buckets; start == end means the window is empty. Sequence
// numbers count from 0 in observation order, so a caller retaining the raw
// stream can reconstruct exactly the point set a query summarises.
func (w *Window) LiveRange() (start, end int64) {
	live := w.live()
	if len(live) == 0 {
		return w.seq, w.seq
	}
	return live[0].startSeq, live[len(live)-1].endSeq
}

// WorkingMemory returns the number of points currently retained: the sum of
// all live bucket coresets (each bounded by tau+1), O(tau * log W). It is a
// function of the window's state alone; queries and clones retain no points
// of their own.
func (w *Window) WorkingMemory() int {
	var n int
	for _, b := range w.live() {
		n += b.proc.WorkingMemory()
	}
	return n
}

// BucketInfo describes one live bucket; it is exported for introspection
// (tests, the daemon's stats endpoint) and mirrors the snapshot metadata.
type BucketInfo struct {
	// Level is the bucket's size class: a sealed level-L bucket summarises
	// Base<<L points.
	Level int
	// Count is the number of points summarised.
	Count int64
	// StartSeq and EndSeq delimit the covered sequence range [StartSeq, EndSeq).
	StartSeq, EndSeq int64
	// StartTS and EndTS are the timestamps of the oldest and newest point.
	StartTS, EndTS int64
}

// Buckets returns the live buckets' metadata, oldest first.
func (w *Window) Buckets() []BucketInfo {
	live := w.live()
	out := make([]BucketInfo, len(live))
	for i, b := range live {
		out[i] = BucketInfo{
			Level:    b.level,
			Count:    b.count,
			StartSeq: b.startSeq,
			EndSeq:   b.endSeq,
			StartTS:  b.startTS,
			EndTS:    b.endTS,
		}
	}
	return out
}

// CheckInvariants verifies the structural invariants of the bucket ring: at
// most chi sealed buckets per level, non-increasing levels towards the
// present, contiguous sequence ranges, non-decreasing timestamps, exact
// sealed-bucket sizes, and per-bucket doubling invariants. Exported for tests
// and debugging; never called on the hot path.
func (w *Window) CheckInvariants() error {
	var perLevel [maxLevel + 2]int
	live := w.live()
	prevLevel := maxLevel + 1
	var prevEndSeq, prevEndTS int64
	for i, b := range live {
		open := w.open != nil && i == len(live)-1
		if open {
			if b.level != 0 {
				return fmt.Errorf("window: open bucket at level %d", b.level)
			}
			if b.count >= int64(w.base) {
				return fmt.Errorf("window: open bucket holds %d points, seal size is %d", b.count, w.base)
			}
		} else {
			perLevel[b.level]++
			if perLevel[b.level] > w.chi {
				return fmt.Errorf("window: %d sealed buckets at level %d exceed chi=%d", perLevel[b.level], b.level, w.chi)
			}
			if b.level > prevLevel {
				return fmt.Errorf("window: bucket %d at level %d follows level %d", i, b.level, prevLevel)
			}
			if want := int64(w.base) << b.level; b.count != want {
				return fmt.Errorf("window: sealed level-%d bucket holds %d points, want %d", b.level, b.count, want)
			}
			prevLevel = b.level
		}
		if b.count != b.proc.Processed() {
			return fmt.Errorf("window: bucket %d count %d != processed %d", i, b.count, b.proc.Processed())
		}
		if b.endSeq-b.startSeq != b.count {
			return fmt.Errorf("window: bucket %d covers [%d,%d) but holds %d points", i, b.startSeq, b.endSeq, b.count)
		}
		if i > 0 && b.startSeq != prevEndSeq {
			return fmt.Errorf("window: bucket %d starts at seq %d, previous ended at %d", i, b.startSeq, prevEndSeq)
		}
		if b.startTS > b.endTS || (i > 0 && b.startTS < prevEndTS) {
			return fmt.Errorf("window: bucket %d timestamps [%d,%d] out of order", i, b.startTS, b.endTS)
		}
		// Sealed buckets are pure weighted coresets: they keep budget and
		// weight accounting, but not the doubling algorithm's resumption
		// invariants (b)/(e), so CheckInvariants of the processor itself is
		// deliberately not consulted here.
		if got := b.proc.WorkingMemory(); got > w.tau+1 {
			return fmt.Errorf("window: bucket %d retains %d points, budget %d", i, got, w.tau)
		}
		var weight int64
		for _, wp := range b.proc.Coreset() {
			if wp.W <= 0 {
				return fmt.Errorf("window: bucket %d carries non-positive weight %d", i, wp.W)
			}
			weight += wp.W
		}
		if weight != b.count {
			return fmt.Errorf("window: bucket %d weights sum to %d, holds %d points", i, weight, b.count)
		}
		prevEndSeq, prevEndTS = b.endSeq, b.endTS
	}
	if len(live) > 0 && live[len(live)-1].endSeq != w.seq {
		return fmt.Errorf("window: newest bucket ends at seq %d, observed %d", live[len(live)-1].endSeq, w.seq)
	}
	return nil
}
