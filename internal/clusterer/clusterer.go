// Package clusterer is the module's one streaming clusterer: the paper's
// coreset-based streaming algorithm (Section 4, Theorem 3) and its
// sliding-window extension behind a single type.
//
// The algorithm is one object — a weighted doubling coreset under a budget —
// with two independent parameters. The kind picks the extraction run at query
// time: GMM on the coreset for plain k-center (a (2+eps)-approximation with
// tau = k*(4/eps)^D), the weighted OutliersCluster radius search for k-center
// with z outliers (a (3+eps)-approximation with tau = (k+z)*(16/epsHat)^D).
// The window picks the state the points flow into: one streaming.Doubling for
// an insertion-only stream, a window.Window (a ring of doubling buckets) for
// a sliding one. Everything else — admission checks, cloning, serialization,
// restoring — is written once over the pair.
//
// The kind is a parameter in its own right and is NOT derived from z: an
// outlier stream with z = 0 still runs the radius search and snapshots as an
// outlier sketch, which keeps sketch bytes and extracted centers stable
// across a snapshot -> restore round-trip.
package clusterer

import (
	"errors"
	"fmt"
	"math"

	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/outliers"
	"coresetclustering/internal/sketch"
	"coresetclustering/internal/streaming"
	"coresetclustering/internal/window"
)

// DefaultEpsHat is the radius-search slack the public constructors and the
// daemon give the outlier-aware streams they create (the paper's experimental
// setting). Restored streams carry their own.
const DefaultEpsHat = 0.25

// ErrNotWindowed is returned by Observe and Advance on an insertion-only
// stream: it has no clock, so a timestamp aimed at it is a caller error
// rather than something to drop silently.
var ErrNotWindowed = errors.New("clusterer: stream has no sliding window (timestamps and Advance need one)")

// ErrEmpty is returned by the query methods of an insertion-only stream that
// has not observed a point yet (a drained window reports
// window.ErrEmptyWindow).
var ErrEmpty = errors.New("clusterer: no points observed")

// Params describes a new clusterer.
type Params struct {
	// Kind selects the query-time extraction: sketch.KindKCenter (GMM) or
	// sketch.KindOutliers (the radius search with Z outliers).
	Kind sketch.Kind
	// Space is the metric space (nil defaults to Euclidean).
	Space metric.Space
	// K is the number of centers extracted at query time (at least 1).
	K int
	// Z is the number of outliers tolerated; 0 unless Kind is KindOutliers.
	Z int
	// Tau is the coreset budget — per bucket for a sliding window — and must
	// be at least K+Z.
	Tau int
	// EpsHat is the slack of the radius search (0 = exact); 0 unless Kind is
	// KindOutliers.
	EpsHat float64
	// Workers is the parallelism degree of the query-time extraction: <= 0
	// selects one worker per CPU, 1 the sequential path. Results are
	// bit-identical for every value.
	Workers int
	// WindowSize and WindowDuration bound a sliding window (see
	// window.Config's MaxCount and MaxAge); both zero makes the stream
	// insertion-only.
	WindowSize, WindowDuration int64
}

// Clusterer is a one-pass streaming k-center clusterer, with or without
// outliers, over the whole stream or a sliding window of it. It is not safe
// for concurrent use.
type Clusterer struct {
	kind    sketch.Kind
	k, z    int
	epsHat  float64
	workers int
	space   metric.Space
	dim     int // of an insertion-only stream's points (0 = not yet known); a window tracks its own

	// Exactly one of the two is set.
	doubling *streaming.Doubling
	win      *window.Window
}

// New validates the parameters and returns an empty clusterer.
func New(p Params) (*Clusterer, error) {
	switch {
	case p.Kind != sketch.KindKCenter && p.Kind != sketch.KindOutliers:
		return nil, fmt.Errorf("clusterer: unknown stream kind %d", p.Kind)
	case p.K < 1:
		return nil, fmt.Errorf("clusterer: k must be positive, got %d", p.K)
	case p.Z < 0:
		return nil, fmt.Errorf("clusterer: z must be non-negative, got %d", p.Z)
	case p.EpsHat < 0 || math.IsNaN(p.EpsHat) || math.IsInf(p.EpsHat, 0):
		return nil, fmt.Errorf("clusterer: epsHat must be finite and non-negative, got %v", p.EpsHat)
	case p.Kind == sketch.KindKCenter && (p.Z != 0 || p.EpsHat != 0):
		return nil, fmt.Errorf("clusterer: a plain k-center stream takes no outlier parameters (z=%d epsHat=%v)", p.Z, p.EpsHat)
	case p.Tau < p.K+p.Z:
		return nil, fmt.Errorf("clusterer: tau (%d) must be at least k+z (%d)", p.Tau, p.K+p.Z)
	}
	c := &Clusterer{kind: p.Kind, k: p.K, z: p.Z, epsHat: p.EpsHat, workers: p.Workers, space: p.Space}
	if c.space == nil {
		c.space = metric.EuclideanSpace
	}
	var err error
	if p.WindowSize != 0 || p.WindowDuration != 0 {
		c.win, err = window.New(window.Config{Space: c.space, Tau: p.Tau, MaxCount: p.WindowSize, MaxAge: p.WindowDuration})
	} else {
		c.doubling, err = streaming.NewDoublingIn(c.space, p.Tau)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Restore reconstructs a clusterer from a serialized sketch of either
// flavour, dispatching on the magic bytes: KCWN restores a sliding window,
// anything else is decoded as an insertion-only KCSK sketch. The bytes are
// decoded exactly once; every parameter, the metric space included, comes
// from the sketch (whose codec has validated them), and only the runtime
// parallelism is the caller's. The restored clusterer is fully live.
func Restore(data []byte, workers int) (*Clusterer, error) {
	if sketch.IsWindowSketch(data) {
		ws, err := sketch.DecodeWindow(data)
		if err != nil {
			return nil, err
		}
		w, err := window.FromSketch(ws)
		if err != nil {
			return nil, err
		}
		return &Clusterer{kind: ws.Kind, k: ws.K, z: ws.Z, epsHat: ws.EpsHat, workers: workers, space: w.Space(), win: w}, nil
	}
	sk, err := sketch.Decode(data)
	if err != nil {
		return nil, err
	}
	sp, err := sk.Space()
	if err != nil {
		return nil, err
	}
	d, err := streaming.RestoreDoublingIn(sp, sk.State())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", sketch.ErrCorrupt, err)
	}
	return &Clusterer{kind: sk.Kind, k: sk.K, z: sk.Z, epsHat: sk.EpsHat, workers: workers, space: sp, dim: sk.Dim(), doubling: d}, nil
}

// Process consumes the next point of the stream; on a sliding window the
// point inherits the newest observed timestamp, which is exactly right for a
// purely count-based window. The point is retained by reference and never
// written: the caller must not modify it afterwards. It implements
// streaming.Processor.
func (c *Clusterer) Process(p metric.Point) error {
	if c.win != nil {
		return c.win.Observe(p, c.win.Now())
	}
	// The window runs the same admission check against its own dimension.
	if err := streaming.CheckPoint(p, c.dim); err != nil {
		return err
	}
	c.dim = p.Dim()
	return c.doubling.Process(p)
}

// Observe consumes the next point at an explicit timestamp (non-negative and
// non-decreasing across calls, in caller-defined units). Only a sliding
// window has a clock: an insertion-only stream returns ErrNotWindowed.
func (c *Clusterer) Observe(p metric.Point, ts int64) error {
	if c.win == nil {
		return ErrNotWindowed
	}
	return c.win.Observe(p, ts)
}

// Advance moves a sliding window's clock forward to ts without observing a
// point, evicting the buckets that age out of a duration window.
func (c *Clusterer) Advance(ts int64) error {
	if c.win == nil {
		return ErrNotWindowed
	}
	return c.win.Advance(ts)
}

// Admit decides, reading only the clusterer, whether it accepts a batch
// observed at ts (nil: at the stream clock; only a window has one, else
// ErrNotWindowed): streaming.CheckBatch against its dimension and clock. On
// a built-in space every point of an admitted batch is then accepted.
func (c *Clusterer) Admit(batch metric.Dataset, ts []int64) error {
	if c.win != nil {
		return streaming.CheckBatch(batch, ts, c.win.Dim(), c.win.Now())
	}
	if ts != nil {
		return ErrNotWindowed
	}
	return streaming.CheckBatch(batch, nil, c.dim, 0)
}

// AdmitAdvance is Admit for a clock advance to ts.
func (c *Clusterer) AdmitAdvance(ts int64) error {
	if c.win == nil {
		return ErrNotWindowed
	}
	return streaming.CheckTimestamp(ts, c.win.Now())
}

// Result is the outcome of a query-time extraction.
type Result struct {
	// Centers are the (at most k) centers.
	Centers metric.Dataset
	// SearchRadius is the radius the outlier search settled on (0 for a plain
	// k-center stream).
	SearchRadius float64
	// UncoveredWeight is the coreset weight the outlier search left uncovered,
	// at most z (0 for a plain k-center stream).
	UncoveredWeight int64
}

// Result runs the stream's extraction on the maintained coreset — of the
// whole stream, or of the live window. It can be called at any time;
// observation may continue afterwards. The extraction reads the retained
// points in place; this is where points leave the module, so the at most k
// centers are returned as copies the caller may modify.
func (c *Clusterer) Result() (*Result, error) {
	if c.win == nil && c.doubling.Processed() == 0 {
		return nil, ErrEmpty
	}
	if c.kind == sketch.KindKCenter {
		pts, err := c.points()
		if err != nil {
			return nil, err
		}
		res, err := gmm.Runner{Space: c.space, Workers: c.workers}.Run(pts, c.k, 0)
		if err != nil {
			return nil, err
		}
		return &Result{Centers: res.Centers.Clone()}, nil
	}
	cs, err := c.coreset()
	if err != nil {
		return nil, err
	}
	solved, err := outliers.SolveIn(c.space, cs, c.k, int64(c.z), c.epsHat, outliers.SearchBinaryGeometric, c.workers)
	if err != nil {
		return nil, err
	}
	return &Result{Centers: solved.Centers.Clone(), SearchRadius: solved.Radius, UncoveredWeight: solved.UncoveredWeight}, nil
}

// Centers is Result reduced to the centers.
func (c *Clusterer) Centers() (metric.Dataset, error) {
	res, err := c.Result()
	if err != nil {
		return nil, err
	}
	return res.Centers, nil
}

// coreset returns the weighted coreset the outlier search runs on: fresh
// headers over the retained points (ErrEmptyWindow from a drained window).
func (c *Clusterer) coreset() (metric.WeightedSet, error) {
	if c.win != nil {
		return c.win.Coreset()
	}
	return c.doubling.Coreset(), nil
}

// points returns the coreset's points alone, which is all GMM reads.
func (c *Clusterer) points() (metric.Dataset, error) {
	if c.win != nil {
		return c.win.Points()
	}
	return c.doubling.AppendPoints(make(metric.Dataset, 0, c.doubling.WorkingMemory())), nil
}

// Clone returns an independent copy: it answers queries and keeps observing
// without the original seeing it, and vice versa. An insertion-only stream
// copies its at most tau+1 (point, weight) headers; a window shares its
// immutable sealed buckets and copies only the open one's headers (see
// (*window.Window).Clone). The coordinate arrays, immutable once observed,
// and the metric space are shared.
func (c *Clusterer) Clone() *Clusterer {
	cp := *c
	if c.win != nil {
		cp.win = c.win.Clone()
	} else {
		cp.doubling = c.doubling.Clone()
	}
	return &cp
}

// Snapshot serializes the complete state into a self-describing sketch: KCSK
// for an insertion-only stream, KCWN for a sliding window. Only the built-in
// metric spaces are serializable (sketch.ErrUnknownDistance otherwise).
func (c *Clusterer) Snapshot() ([]byte, error) {
	id, err := sketch.SpaceID(c.space)
	if err != nil {
		return nil, err
	}
	if c.win != nil {
		return sketch.EncodeWindow(c.win.Sketch(c.kind, id, c.k, c.z, c.epsHat))
	}
	return sketch.Encode(sketch.FromState(c.kind, id, c.k, c.z, c.epsHat, c.doubling.State()))
}

// Kind returns the stream kind (which extraction Result runs).
func (c *Clusterer) Kind() sketch.Kind { return c.kind }

// K returns the number of centers extracted at query time.
func (c *Clusterer) K() int { return c.k }

// Z returns the number of outliers tolerated at query time.
func (c *Clusterer) Z() int { return c.z }

// Space returns the metric space the stream runs on.
func (c *Clusterer) Space() metric.Space { return c.space }

// Window returns the sliding window the points flow into (shared, not a
// copy) for its geometry and live-range introspection, or nil for an
// insertion-only stream.
func (c *Clusterer) Window() *window.Window { return c.win }

// Tau returns the coreset budget (per bucket for a sliding window).
func (c *Clusterer) Tau() int {
	if c.win != nil {
		return c.win.Tau()
	}
	return c.doubling.Tau()
}

// Dim returns the dimensionality of the stream's points: fixed by the first
// observed point or by the restored sketch, 0 until then.
func (c *Clusterer) Dim() int {
	if c.win != nil {
		return c.win.Dim()
	}
	return c.dim
}

// Processed returns the number of points consumed over the stream's lifetime
// (points a window has since evicted included).
func (c *Clusterer) Processed() int64 {
	if c.win != nil {
		return c.win.Observed()
	}
	return c.doubling.Processed()
}

// WorkingMemory returns the number of points currently retained: at most
// tau+1 for an insertion-only stream, O(tau * log window) for a window.
func (c *Clusterer) WorkingMemory() int {
	if c.win != nil {
		return c.win.WorkingMemory()
	}
	return c.doubling.WorkingMemory()
}
