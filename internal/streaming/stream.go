// Package streaming implements the Streaming-model side of the paper:
//
//   - the weighted doubling algorithm (a weighted extension of Charikar,
//     Chekuri, Feder, Motwani 2004) used as the 1-pass coreset construction.
//     The paper's coreset-based streaming algorithms for k-center without
//     and with outliers are this state plus a query-time extraction; that
//     composition is internal/clusterer, one layer up;
//   - BaseStream / BaseOutliers: re-implementations of the McCutchen–Khuller
//     (2008) streaming baselines the paper compares against in Figures 3
//     and 5;
//   - the admission rule every layer that accepts points asks (CheckPoint,
//     CheckBatch).
//
// All algorithms consume points one at a time through the Processor
// interface and never retain more than their stated working-memory budget.
package streaming

import (
	"errors"
	"fmt"
	"math"

	"coresetclustering/internal/metric"
)

// Processor is a streaming algorithm: it consumes points one at a time.
type Processor interface {
	// Process consumes the next point of the stream.
	Process(p metric.Point) error
}

// The admission rule: what a stream accepts, decided here once and asked by
// every layer that admits points — the clusterer, the window, state and
// sketch restores, the daemon's ingest front end and engine.
const (
	// MaxDim is the largest admitted dimension, the KCFL frame's own cap.
	MaxDim = 1 << 20
	// MaxCoordinate is B, the one magnitude bound: every admitted coordinate
	// has |c| <= B. It is not per Space, because the router checks a batch
	// before fan-out without knowing the stream's space. B = 2^500 is the
	// largest power of two at which no built-in kernel, surrogate or
	// FromSurrogate overflows at any d <= MaxDim = 2^20: a Euclidean
	// surrogate sums d squares of differences |a-b| <= 2B, so it is at most
	// 2^20 * 2^1002 = 2^1022 (rounding is monotone, and every partial sum's
	// bound is representable), below overflow at 2^1024; Manhattan is at
	// most d*2B = 2^521, Chebyshev 2B; the angular and cosine kernels' norms
	// and dot products are at most d*B^2 = 2^1020. The streaming algorithms
	// only scale distances by small factors (phi < D/2 for the largest
	// pairwise distance D), so they stay finite too. A caller's distance
	// function has no such bound: see ErrNonFiniteDistance.
	MaxCoordinate = 0x1p500
)

// Errors of the admission rule that callers map to codes. Any other refusal
// is an inadmissible point: a dimension mismatch wraps
// metric.ErrDimensionMismatch, a coordinate out of bounds
// metric.ErrInvalidCoordinate.
var (
	ErrEmptyBatch        = errors.New("streaming: empty batch")
	ErrTimestampCount    = errors.New("streaming: not one timestamp per point")
	ErrNegativeTimestamp = errors.New("streaming: timestamps must be non-negative")
	// ErrTimestampOrder: eviction is driven by observed timestamps alone,
	// never a clock, so time must not move backwards.
	ErrTimestampOrder = errors.New("streaming: timestamps must be non-decreasing")
)

// CheckPoint admits a point to a stream of dimension dim (0 = not yet
// fixed): non-nil, 1 to MaxDim coordinates, matching dim, each within
// ±MaxCoordinate (NaN and ±Inf are outside). It reads only its arguments, so
// a refused point never perturbs the state it was aimed at.
func CheckPoint(p metric.Point, dim int) error {
	switch {
	case p == nil:
		return errors.New("streaming: nil point")
	case len(p) == 0:
		return errors.New("streaming: zero-dimensional point")
	case len(p) > MaxDim:
		return fmt.Errorf("streaming: point has %d coordinates, more than %d", len(p), MaxDim)
	case dim != 0 && len(p) != dim:
		return fmt.Errorf("streaming: point has dimension %d, want %d: %w", len(p), dim, metric.ErrDimensionMismatch)
	}
	for i, c := range p {
		if !(math.Abs(c) <= MaxCoordinate) {
			return fmt.Errorf("streaming: coordinate %d = %v is outside ±2^500: %w", i, c, metric.ErrInvalidCoordinate)
		}
	}
	return nil
}

// CheckTimestamp admits a timestamp to a stream whose clock reads now:
// non-negative and not before now.
func CheckTimestamp(ts, now int64) error {
	if ts < 0 {
		return fmt.Errorf("%w: got %d", ErrNegativeTimestamp, ts)
	}
	if ts < now {
		return fmt.Errorf("%w: got %d after %d", ErrTimestampOrder, ts, now)
	}
	return nil
}

// CheckBatch admits a batch to a stream of dimension dim (0: the first
// point's) whose clock reads now: it has points, ts is nil or holds one per
// point, every point passes CheckPoint and every timestamp CheckTimestamp
// against the one before it, the first against now.
func CheckBatch(batch metric.Dataset, ts []int64, dim int, now int64) error {
	if len(batch) == 0 {
		return ErrEmptyBatch
	}
	if ts != nil && len(ts) != len(batch) {
		return fmt.Errorf("%w: %d timestamps for %d points", ErrTimestampCount, len(ts), len(batch))
	}
	if dim == 0 {
		dim = len(batch[0])
	}
	for i, p := range batch {
		if err := CheckPoint(p, dim); err != nil {
			return fmt.Errorf("point %d: %w", i, err)
		}
	}
	for i, t := range ts {
		if err := CheckTimestamp(t, now); err != nil {
			return fmt.Errorf("timestamp %d: %w", i, err)
		}
		now = t
	}
	return nil
}
