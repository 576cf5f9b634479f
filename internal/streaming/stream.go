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
//   - a two-pass variant of the outlier algorithm that is oblivious to the
//     doubling dimension (Section 4 of the paper).
//
// All algorithms consume points one at a time through the Processor
// interface, so they can be fed from a slice, a channel, or any other source,
// and they never retain more than their stated working-memory budget.
package streaming

import (
	"errors"
	"fmt"

	"coresetclustering/internal/metric"
)

// Processor is a streaming algorithm: it consumes points one at a time and
// can report its current working-memory footprint (in points).
type Processor interface {
	// Process consumes the next point of the stream.
	Process(p metric.Point) error
	// WorkingMemory returns the number of points currently retained.
	WorkingMemory() int
	// Processed returns the number of points consumed so far.
	Processed() int64
}

// CheckPoint is the admission check of a streaming state whose points have
// dimension dim (0 = not yet fixed): the point must be non-nil, have at least
// one coordinate, all of them finite, and match dim. It reads nothing but its
// arguments, so a rejected point never perturbs the state it was aimed at.
func CheckPoint(p metric.Point, dim int) error {
	if p == nil {
		return errors.New("streaming: nil point")
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("streaming: %w", err)
	}
	if p.Dim() == 0 {
		return errors.New("streaming: zero-dimensional point")
	}
	if dim != 0 && p.Dim() != dim {
		return fmt.Errorf("streaming: point has dimension %d, want %d: %w", p.Dim(), dim, metric.ErrDimensionMismatch)
	}
	return nil
}

// Source yields the points of a stream one at a time.
type Source interface {
	// Next returns the next point and true, or (nil, false) once the stream
	// is exhausted.
	Next() (metric.Point, bool)
}

// SliceSource streams the points of an in-memory dataset in order.
type SliceSource struct {
	points metric.Dataset
	pos    int
}

// NewSliceSource returns a Source over the given dataset.
func NewSliceSource(points metric.Dataset) *SliceSource {
	return &SliceSource{points: points}
}

// Next implements Source.
func (s *SliceSource) Next() (metric.Point, bool) {
	if s.pos >= len(s.points) {
		return nil, false
	}
	p := s.points[s.pos]
	s.pos++
	return p, true
}

// Reset rewinds the source to the beginning of the dataset; used by the
// two-pass algorithm.
func (s *SliceSource) Reset() { s.pos = 0 }

// ChannelSource streams points received on a channel, modelling the
// "data generated on the fly" scenario (e.g. a feed of tweets).
type ChannelSource struct {
	ch <-chan metric.Point
}

// NewChannelSource returns a Source over the given channel; the stream ends
// when the channel is closed.
func NewChannelSource(ch <-chan metric.Point) *ChannelSource {
	return &ChannelSource{ch: ch}
}

// Next implements Source.
func (c *ChannelSource) Next() (metric.Point, bool) {
	p, ok := <-c.ch
	return p, ok
}

// ErrNilProcessor is returned by Drain when the processor is nil.
var ErrNilProcessor = errors.New("streaming: nil processor")

// Drain feeds every point of the source into the processor and returns the
// number of points processed.
func Drain(src Source, proc Processor) (int64, error) {
	if proc == nil {
		return 0, ErrNilProcessor
	}
	if src == nil {
		return 0, errors.New("streaming: nil source")
	}
	var n int64
	for {
		p, ok := src.Next()
		if !ok {
			return n, nil
		}
		if err := proc.Process(p); err != nil {
			return n, err
		}
		n++
	}
}
