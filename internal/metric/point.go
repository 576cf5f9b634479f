// Package metric provides the metric-space substrate used by every clustering
// algorithm in this repository: points, distance functions, distance-call
// accounting, and doubling-dimension estimation.
//
// All algorithms in the paper are stated for general metric spaces; the
// experiments use Euclidean distance over low- to medium-dimensional vectors.
// This package keeps the two concerns separate: a Point is a plain coordinate
// vector, and a Distance is any function satisfying the metric axioms.
package metric

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Point is a vector in d-dimensional real space. Points are treated as
// immutable by every algorithm in this module; callers that mutate a Point
// after handing it to an algorithm get undefined behaviour.
type Point []float64

// ErrDimensionMismatch is returned when two points of different dimensions are
// combined in an operation that requires equal dimensions.
var ErrDimensionMismatch = errors.New("metric: dimension mismatch")

// ErrInvalidCoordinate is returned for a NaN, Inf or out-of-bounds coordinate.
var ErrInvalidCoordinate = errors.New("metric: invalid coordinate")

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p) }

// Clone returns a deep copy of the point.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the point as a comma-separated coordinate list.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// Scale returns a*p as a new point.
func (p Point) Scale(a float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = a * p[i]
	}
	return r
}

// Dataset is a slice of points sharing a common dimensionality.
type Dataset []Point

// Dim returns the dimensionality of the dataset, or 0 if it is empty.
func (ds Dataset) Dim() int {
	if len(ds) == 0 {
		return 0
	}
	return ds[0].Dim()
}

// Clone returns a deep copy of the dataset whose coordinates lie in one new
// block, row after row in dataset order: a scan over the copy walks memory
// strictly forward however scattered the originals were. Each row's capacity
// ends at its own last coordinate, so appending to one row never writes its
// neighbour.
func (ds Dataset) Clone() Dataset {
	n := 0
	for _, p := range ds {
		n += len(p)
	}
	block := make([]float64, n)
	out := make(Dataset, len(ds))
	off := 0
	for i, p := range ds {
		end := off + copy(block[off:], p)
		out[i] = block[off:end:end]
		off = end
	}
	return out
}

// Validate checks that the dataset is non-empty, that every point has the same
// dimensionality, and that no coordinate is NaN or infinite.
func (ds Dataset) Validate() error {
	if len(ds) == 0 {
		return errors.New("metric: empty dataset")
	}
	d := ds[0].Dim()
	for i, p := range ds {
		if p.Dim() != d {
			return fmt.Errorf("%w: point %d has dimension %d, want %d", ErrDimensionMismatch, i, p.Dim(), d)
		}
		for j, c := range p {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("point %d: %w: coordinate %d = %v", i, ErrInvalidCoordinate, j, c)
			}
		}
	}
	return nil
}

// BoundingBox returns, per dimension, the minimum and maximum coordinate over
// the dataset. It is used by the dataset generators and by the SMOTE-like
// inflation procedure of the scalability experiments.
func (ds Dataset) BoundingBox() (lo, hi Point, err error) {
	if len(ds) == 0 {
		return nil, nil, errors.New("metric: bounding box of empty dataset")
	}
	d := ds.Dim()
	lo = ds[0].Clone()
	hi = ds[0].Clone()
	for _, p := range ds[1:] {
		if p.Dim() != d {
			return nil, nil, ErrDimensionMismatch
		}
		for i, c := range p {
			if c < lo[i] {
				lo[i] = c
			}
			if c > hi[i] {
				hi[i] = c
			}
		}
	}
	return lo, hi, nil
}
