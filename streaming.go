package kcenter

import (
	"errors"
	"fmt"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/sketch"
)

// newClusterer builds the clusterer behind the four public constructors:
// kind picks the extraction, windowed says which constructor family is
// asking, and the window options must agree with it.
func newClusterer(kind sketch.Kind, windowed bool, k, z, budget int, opts []Option) (*clusterer.Clusterer, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	hasWindow := o.windowSize != 0 || o.windowDuration != 0
	if windowed && !hasWindow {
		return nil, errors.New("kcenter: a windowed stream needs WithWindowSize or WithWindowDuration")
	}
	if !windowed && hasWindow {
		return nil, errors.New("kcenter: this stream is insertion-only; use NewWindowedKCenter or NewWindowedOutliers for sliding windows")
	}
	p := clusterer.Params{
		Kind: kind, Space: o.space, K: k, Z: z, Tau: budget, Workers: o.workers,
		WindowSize: o.windowSize, WindowDuration: o.windowDuration,
	}
	if kind == sketch.KindOutliers {
		p.EpsHat = clusterer.DefaultEpsHat
	}
	c, err := clusterer.New(p)
	if err != nil {
		return nil, fmt.Errorf("kcenter: %w", err)
	}
	return c, nil
}

// restoreClusterer revives the clusterer behind the four public Restore
// functions and checks that the sketch is of the flavour the caller asked
// for. All parameters come from the sketch; options only tune runtime
// behaviour (WithWorkers).
func restoreClusterer(data []byte, kind sketch.Kind, windowed bool, opts []Option) (*clusterer.Clusterer, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	c, err := clusterer.Restore(data, o.workers)
	if err != nil {
		return nil, err
	}
	if (c.Window() != nil) != windowed {
		want := "an insertion-only (KCSK)"
		if windowed {
			want = "a sliding-window (KCWN)"
		}
		return nil, fmt.Errorf("kcenter: %w: want %s sketch", ErrSketchBadMagic, want)
	}
	if c.Kind() != kind {
		return nil, fmt.Errorf("kcenter: %w: sketch is %s, want %s", ErrSketchIncompatible, c.Kind(), kind)
	}
	return c, nil
}

// stream is the method set every streaming clusterer shares, declared once
// over the single internal implementation; the four public types embed it.
type stream struct {
	c *clusterer.Clusterer
}

// Observe consumes the next point of the stream. The point must have finite
// coordinates and the dimensionality of the points before it (the first point,
// or the restored sketch, fixes it); a rejected point leaves the clusterer
// untouched. An accepted point is retained by reference and never written:
// do not modify it afterwards. On a sliding window the point inherits the
// newest observed timestamp (0 before the first ObserveAt), which is exactly
// right for purely count-based windows; duration windows should use ObserveAt.
func (s stream) Observe(p Point) error { return s.c.Process(p) }

// ObserveAll consumes a batch of points in order (on a sliding window, all at
// the newest observed timestamp).
func (s stream) ObserveAll(points Dataset) error {
	for _, p := range points {
		if err := s.c.Process(p); err != nil {
			return err
		}
	}
	return nil
}

// Centers returns at most k centers summarising everything observed so far —
// or, on a sliding window, the live window (ErrWindowEmpty once everything
// has been evicted). An outlier-aware clusterer may leave up to z points
// uncovered (the outliers). It may be called repeatedly; observation can
// continue afterwards. The centers are copies: the caller may modify them.
func (s stream) Centers() (Dataset, error) { return s.c.Centers() }

// WorkingMemory reports the number of points currently retained: at most the
// budget (plus one) for an insertion-only stream, O(budget * log window) for
// a sliding window.
func (s stream) WorkingMemory() int { return s.c.WorkingMemory() }

// Observed reports how many points have been consumed over the stream's
// lifetime, including any a sliding window has since evicted.
func (s stream) Observed() int64 { return s.c.Processed() }

// Snapshot serializes the complete state of the clusterer into a compact,
// self-describing binary sketch: the doubling-algorithm state (budget, lower
// bound, weighted coreset points) — one per live bucket, with the window
// geometry and bucket boundaries, for a sliding window (magic KCWN instead of
// KCSK) — the query parameters k, z and the radius-search slack, and the
// identity of the distance function. The sketch can be persisted, shipped
// across machines and restored with the Restore function of the same type;
// insertion-only sketches can also be merged with sketches of other shards
// via MergeSketches. Observation may continue after the call. Decoding is
// strictly validated and serialization is deterministic: a restored
// clusterer answers Centers bit-identically and re-snapshots byte-identically.
//
// Only the built-in distances (Euclidean, Manhattan, Chebyshev, Angular,
// Cosine) are serializable; a custom WithDistance function yields
// ErrSketchUnknownDistance because the receiving machine could not
// reconstruct it.
func (s stream) Snapshot() ([]byte, error) {
	data, err := s.c.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("kcenter: %w", err)
	}
	return data, nil
}

// StreamingKCenter is a one-pass streaming k-center clusterer with a fixed
// working-memory budget. It maintains a weighted coreset of at most budget
// points with the doubling algorithm; Centers extracts the final k centers at
// any time with the Gonzalez greedy. A budget of mu*k points yields quality
// comparable to the 2+eps MapReduce algorithm on data of bounded doubling
// dimension.
type StreamingKCenter struct{ stream }

// NewStreamingKCenter creates a streaming clusterer for k centers with the
// given working-memory budget (in points, at least k).
func NewStreamingKCenter(k, budget int, opts ...Option) (*StreamingKCenter, error) {
	c, err := newClusterer(sketch.KindKCenter, false, k, 0, budget, opts)
	if err != nil {
		return nil, err
	}
	return &StreamingKCenter{stream{c}}, nil
}

// RestoreStreamingKCenter reconstructs a streaming clusterer from a sketch
// produced by Snapshot (or MergeSketches). The metric space and all
// parameters come from the sketch itself (sketches are named after their
// space, so decoding resolves the full batched-kernel substrate, not just a
// scalar distance); options may tune the runtime behaviour of the restored
// stream (WithWorkers), while WithDistance is ignored. The restored stream is
// fully live: it can keep observing points, answer Centers, and be
// snapshotted again.
func RestoreStreamingKCenter(data []byte, opts ...Option) (*StreamingKCenter, error) {
	c, err := restoreClusterer(data, sketch.KindKCenter, false, opts)
	if err != nil {
		return nil, err
	}
	return &StreamingKCenter{stream{c}}, nil
}

// Clone returns an independent copy of the clusterer: a point-in-time
// snapshot that answers Centers and Snapshot — and can even keep observing —
// without the original seeing it, and vice versa. It copies the at most
// budget+1 (point, weight) headers and shares the observed coordinate arrays,
// which are never written, so a clone is cheap whatever the dimension; it is
// the building block of snapshot-isolated query views (clone under the
// writer's lock, publish the clone, query it without any lock).
func (s *StreamingKCenter) Clone() *StreamingKCenter {
	return &StreamingKCenter{stream{s.c.Clone()}}
}

// StreamingOutliers is a one-pass streaming clusterer for the k-center
// problem with z outliers (the paper's Theorem 3 algorithm). It maintains a
// weighted coreset of at most budget points; Centers runs the weighted
// outlier-aware clustering on the coreset at query time.
type StreamingOutliers struct{ stream }

// NewStreamingOutliers creates a streaming clusterer for k centers and z
// outliers with the given working-memory budget (in points, at least k+z).
func NewStreamingOutliers(k, z, budget int, opts ...Option) (*StreamingOutliers, error) {
	c, err := newClusterer(sketch.KindOutliers, false, k, z, budget, opts)
	if err != nil {
		return nil, err
	}
	return &StreamingOutliers{stream{c}}, nil
}

// RestoreStreamingOutliers reconstructs a streaming outlier clusterer from a
// sketch produced by (*StreamingOutliers).Snapshot (or MergeSketches over
// such sketches), with the same semantics as RestoreStreamingKCenter.
func RestoreStreamingOutliers(data []byte, opts ...Option) (*StreamingOutliers, error) {
	c, err := restoreClusterer(data, sketch.KindOutliers, false, opts)
	if err != nil {
		return nil, err
	}
	return &StreamingOutliers{stream{c}}, nil
}

// Clone returns an independent copy of the clusterer, with the same semantics
// as (*StreamingKCenter).Clone.
func (s *StreamingOutliers) Clone() *StreamingOutliers {
	return &StreamingOutliers{stream{s.c.Clone()}}
}
