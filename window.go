package kcenter

import (
	"coresetclustering/internal/sketch"
	"coresetclustering/internal/window"
)

// Window errors, re-exported from the window subsystem so callers can branch
// on them with errors.Is.
var (
	// ErrWindowEmpty: every bucket has been evicted (or nothing observed);
	// there are no live points to answer a query over.
	ErrWindowEmpty = window.ErrEmptyWindow
	// ErrTimestampOrder: a point or Advance call carried a timestamp smaller
	// than an already observed one. Timestamps must be non-decreasing — the
	// window never reads a clock, so observed time is its only notion of
	// "now".
	ErrTimestampOrder = window.ErrTimestampOrder
	// ErrNegativeTimestamp: timestamps are non-negative ticks in
	// caller-defined units.
	ErrNegativeTimestamp = window.ErrNegativeTimestamp
)

// windowStream adds the sliding-window method set — timestamped ingest, the
// explicit clock and live-window introspection — to the shared one, declared
// once for both windowed types.
type windowStream struct{ stream }

// ObserveAt consumes the next point with an explicit timestamp (non-negative,
// non-decreasing across calls, in caller-defined units — the same units as
// WithWindowDuration).
func (s windowStream) ObserveAt(p Point, ts int64) error { return s.c.Observe(p, ts) }

// Advance moves the window's notion of "now" forward to ts without observing
// a point, evicting buckets that age out of a duration window.
func (s windowStream) Advance(ts int64) error { return s.c.Advance(ts) }

// LivePoints reports how many stream points the live window currently
// summarises.
func (s windowStream) LivePoints() int64 { return s.c.Window().LivePoints() }

// LiveBuckets reports the number of live buckets (O(log window)).
func (s windowStream) LiveBuckets() int { return s.c.Window().LiveBuckets() }

// EvictedBuckets reports the lifetime count of buckets evicted from the
// window; EvictedPoints the stream points those buckets summarised.
func (s windowStream) EvictedBuckets() int64 { return s.c.Window().EvictedBuckets() }

// EvictedPoints reports the lifetime count of stream points inside evicted
// buckets.
func (s windowStream) EvictedPoints() int64 { return s.c.Window().EvictedPoints() }

// LiveRange returns the contiguous observation-order range [start, end) of
// the points the live window summarises; start == end means the window is
// empty.
func (s windowStream) LiveRange() (start, end int64) { return s.c.Window().LiveRange() }

// LastTimestamp returns the newest observed (or advanced-to) timestamp.
func (s windowStream) LastTimestamp() int64 { return s.c.Window().Now() }

// WindowedKCenter is a sliding-window k-center clusterer: it summarises only
// the most recent part of the stream — the last WithWindowSize points, the
// last WithWindowDuration time units, or both — instead of the entire prefix.
//
// It is the same clusterer as StreamingKCenter with a different state behind
// it: the stream is decomposed into a ring of timestamped buckets, each
// holding an independent doubling coreset of at most budget points; buckets
// coalesce exponential-histogram style (so the ring holds O(log window)
// buckets and working memory stays O(budget * log window)), whole buckets are
// evicted as they age out, and Centers extracts k centers from the union of
// the live buckets' coresets. The live summary always covers at least the
// requested window and overshoots it by at most the span of the oldest live
// bucket.
//
// The determinism contract extends to windows: eviction and coalescing are
// driven only by observed counts and explicitly supplied timestamps (never a
// clock), so results are bit-identical across worker counts and across a
// Snapshot -> Restore round-trip.
type WindowedKCenter struct{ windowStream }

// NewWindowedKCenter creates a sliding-window k-center clusterer with the
// given per-bucket coreset budget (in points, at least k). At least one of
// WithWindowSize and WithWindowDuration must be supplied.
func NewWindowedKCenter(k, budget int, opts ...Option) (*WindowedKCenter, error) {
	c, err := newClusterer(sketch.KindKCenter, true, k, 0, budget, opts)
	if err != nil {
		return nil, err
	}
	return &WindowedKCenter{windowStream{stream{c}}}, nil
}

// RestoreWindowedKCenter reconstructs a sliding-window clusterer from a
// sketch produced by (*WindowedKCenter).Snapshot. All parameters (including
// the window bounds) come from the sketch itself; options may tune runtime
// behaviour (WithWorkers). The restored stream is fully live and answers
// Centers bit-identically to the stream it was captured from.
func RestoreWindowedKCenter(data []byte, opts ...Option) (*WindowedKCenter, error) {
	c, err := restoreClusterer(data, sketch.KindKCenter, true, opts)
	if err != nil {
		return nil, err
	}
	return &WindowedKCenter{windowStream{stream{c}}}, nil
}

// Clone returns a copy-on-write copy of the clusterer: a point-in-time
// snapshot that answers Centers and Snapshot — and can even keep observing —
// independently of the original. Sealed window buckets are immutable and
// shared, as are all observed coordinates, so a clone costs O(log window)
// pointer copies plus the headers of one small open bucket; see (*StreamingKCenter).Clone for the query-view pattern it serves.
func (s *WindowedKCenter) Clone() *WindowedKCenter {
	return &WindowedKCenter{windowStream{stream{s.c.Clone()}}}
}

// WindowedOutliers is the sliding-window clusterer for the k-center problem
// with z outliers: the same bucketed window decomposition as WindowedKCenter,
// with the weighted outlier-aware radius search run on the union of the live
// coresets at query time.
type WindowedOutliers struct{ windowStream }

// NewWindowedOutliers creates a sliding-window clusterer for k centers and z
// outliers with the given per-bucket coreset budget (in points, at least
// k+z). At least one of WithWindowSize and WithWindowDuration must be
// supplied.
func NewWindowedOutliers(k, z, budget int, opts ...Option) (*WindowedOutliers, error) {
	c, err := newClusterer(sketch.KindOutliers, true, k, z, budget, opts)
	if err != nil {
		return nil, err
	}
	return &WindowedOutliers{windowStream{stream{c}}}, nil
}

// RestoreWindowedOutliers reconstructs a sliding-window outlier clusterer
// from a sketch produced by (*WindowedOutliers).Snapshot, with the same
// semantics as RestoreWindowedKCenter.
func RestoreWindowedOutliers(data []byte, opts ...Option) (*WindowedOutliers, error) {
	c, err := restoreClusterer(data, sketch.KindOutliers, true, opts)
	if err != nil {
		return nil, err
	}
	return &WindowedOutliers{windowStream{stream{c}}}, nil
}

// Clone returns a copy-on-write copy of the clusterer, with the same
// semantics as (*WindowedKCenter).Clone.
func (s *WindowedOutliers) Clone() *WindowedOutliers {
	return &WindowedOutliers{windowStream{stream{s.c.Clone()}}}
}
