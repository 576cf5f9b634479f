package kcenter

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"coresetclustering/internal/core"
	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/streaming"
)

// Point is a vector in d-dimensional space. All points passed to one call
// must share the same dimensionality.
type Point = metric.Point

// Dataset is a collection of points.
type Dataset = metric.Dataset

// Distance measures the distance between two points; it must satisfy the
// metric axioms for the approximation guarantees to hold, and it must be
// safe for concurrent calls — the distance engine invokes it from multiple
// goroutines unless WithWorkers(1) pins the sequential path.
type Distance = metric.Distance

// Built-in distance functions.
var (
	// Euclidean is the L2 distance (the default).
	Euclidean Distance = metric.Euclidean
	// Manhattan is the L1 distance.
	Manhattan Distance = metric.Manhattan
	// Chebyshev is the L-infinity distance.
	Chebyshev Distance = metric.Chebyshev
	// Angular is the normalised angular distance, a proper metric for
	// direction-valued data such as embeddings.
	Angular Distance = metric.Angular
)

// Space is a first-class metric space: a named distance function plus the
// batched block kernels and the comparison-domain surrogate every hot path
// of the library runs on. Every Distance passed through WithDistance is
// upgraded to its native Space automatically (built-ins) or wrapped in the
// identity-surrogate adapter (custom functions); WithSpace selects a space
// explicitly.
type Space = metric.Space

// Built-in metric spaces, the native (surrogate-accelerated) counterparts of
// the distance functions above.
var (
	// EuclideanSpace compares in the squared-L2 surrogate domain: no square
	// root per evaluation, one per reported radius.
	EuclideanSpace Space = metric.EuclideanSpace
	// ManhattanSpace and ChebyshevSpace batch the coordinate loops; their
	// surrogate is the distance itself.
	ManhattanSpace Space = metric.ManhattanSpace
	ChebyshevSpace Space = metric.ChebyshevSpace
	// AngularSpace and CosineSpace compare by negated cosine similarity: no
	// arccos per evaluation, and the query point's norm is computed once per
	// block.
	AngularSpace Space = metric.AngularSpace
	CosineSpace  Space = metric.CosineSpace
)

// SpaceByName returns the built-in space registered under name ("euclidean",
// "manhattan", "chebyshev", "angular", "cosine"), or nil for an unknown
// name. Named spaces are what the sketch codec serializes.
func SpaceByName(name string) Space { return metric.SpaceByName(name) }

// SpaceFromDistance wraps a custom scalar distance function into a Space
// with the identity surrogate: every kernel evaluation calls dist exactly
// once and no comparison-domain shortcut is taken. The wrapped function must
// satisfy the metric axioms and be safe for concurrent calls. This is the
// adapter WithDistance applies implicitly to custom functions; it is
// exported for callers that want to name their metric or pin the adapter
// path explicitly (e.g. for benchmarking against a native space).
func SpaceFromDistance(name string, dist Distance) Space {
	return metric.SpaceFromDistance(name, dist)
}

// options collects the tunables shared by Cluster and ClusterWithOutliers.
type options struct {
	space             Space
	ell               int
	coresetMultiplier int
	eps               float64
	parallelism       int
	workers           int
	randomized        bool
	seed              int64
	seedSet           bool
	windowSize        int64
	windowDuration    int64
}

// Option customises Cluster and ClusterWithOutliers.
type Option func(*options)

// WithDistance selects the distance function (default Euclidean). Built-in
// functions are upgraded to their native metric spaces; custom functions run
// through the SpaceFromDistance adapter, which calls them once per
// evaluation exactly as in previous releases.
func WithDistance(d Distance) Option {
	return func(o *options) { o.space = metric.SpaceFor(d) }
}

// WithSpace selects the metric space explicitly, overriding WithDistance.
// Use a built-in space (EuclideanSpace, ...) for the surrogate-accelerated
// native kernels, or SpaceFromDistance for a custom metric. The determinism
// contract is unchanged: for the built-in spaces whose surrogate is an exact
// monotone prefix of the true distance (Euclidean, Manhattan, Chebyshev),
// results are bit-identical between the native and adapter paths, and for
// every space they are bit-identical across worker counts.
func WithSpace(s Space) Option {
	return func(o *options) {
		if s != nil {
			o.space = s
		}
	}
}

// WithPartitions fixes the number of partitions (the parallelism ell of the
// first round). The default is the paper's memory-balancing choice
// ell = sqrt(|S| / (k+z)), clamped to at least 1.
func WithPartitions(ell int) Option {
	return func(o *options) { o.ell = ell }
}

// WithCoresetMultiplier sets the per-partition coreset size to mu*(k+z)
// (mu*k without outliers). Larger multipliers give better solutions at the
// cost of more memory and time; mu = 1 reproduces the Malkomes et al.
// baseline. The default is 4. Mutually exclusive with WithPrecision.
func WithCoresetMultiplier(mu int) Option {
	return func(o *options) { o.coresetMultiplier = mu }
}

// WithPrecision sets the precision parameter eps of the coreset stopping rule
// instead of a fixed coreset size: each partition keeps selecting centers
// until the residual radius drops below eps/2 times its k-center (or
// (k+z)-center) radius. The resulting approximation factors are 2+eps and
// 3+eps. Mutually exclusive with WithCoresetMultiplier.
func WithPrecision(eps float64) Option {
	return func(o *options) { o.eps = eps }
}

// WithParallelism bounds the number of partitions processed concurrently
// (default: one goroutine per CPU).
func WithParallelism(workers int) Option {
	return func(o *options) { o.parallelism = workers }
}

// WithWorkers sets the parallelism degree of the distance engine: the number
// of goroutines over which every distance-dominated pass (Gonzalez scans,
// nearest-center assignment, radius computation, the outlier covering loop)
// is chunked. n <= 0 (the default) selects one worker per available CPU; 1
// forces the fully sequential path.
//
// The determinism contract: centers, radii and assignments are bit-identical
// for every worker count — parallelism is applied only across independent
// points, ties resolve to the lowest index, and all reductions are ordered.
// WithWorkers therefore only trades wall-clock time for CPUs, never quality
// or reproducibility.
//
// With more than one worker the Distance function is called from multiple
// goroutines concurrently; custom distances carrying mutable state need
// their own synchronisation or WithWorkers(1).
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithWindowSize makes NewWindowedKCenter / NewWindowedOutliers summarise
// only the last n points of the stream (a count-based sliding window). It
// composes with WithWindowDuration: with both set, a point stays live only
// while it satisfies both bounds. It has no effect on the non-windowed entry
// points.
func WithWindowSize(n int) Option {
	return func(o *options) { o.windowSize = int64(n) }
}

// WithWindowDuration makes NewWindowedKCenter / NewWindowedOutliers summarise
// only the points whose timestamp ts satisfies ts > now-d, where now is the
// newest observed (or advanced-to) timestamp — the half-open window (now-d,
// now], mirroring the count window's "last n points". Timestamps are the
// non-negative int64 ticks supplied to ObserveAt — the library never reads a
// clock — and d is expressed in the same caller-defined units. It composes
// with WithWindowSize and has no effect on the non-windowed entry points.
func WithWindowDuration(d int64) Option {
	return func(o *options) { o.windowDuration = d }
}

// WithRandomizedPartitioning switches ClusterWithOutliers to the randomized
// variant of the paper: points are spread over the partitions uniformly at
// random, which shrinks the per-partition coreset size from k+z to
// k + 6(z/ell + log2 n) reference centers and defeats adversarial input
// orders. It has no effect on Cluster (whose guarantee does not depend on the
// partitioning).
func WithRandomizedPartitioning(seed int64) Option {
	return func(o *options) {
		o.randomized = true
		o.seed = seed
		o.seedSet = true
	}
}

func buildOptions(opts []Option) (options, error) {
	o := options{space: EuclideanSpace, coresetMultiplier: 4}
	for _, opt := range opts {
		opt(&o)
	}
	if o.eps > 0 {
		o.coresetMultiplier = 0 // precision rule replaces the fixed size
	}
	if o.eps < 0 {
		return o, fmt.Errorf("kcenter: negative precision %v", o.eps)
	}
	if o.coresetMultiplier < 0 {
		return o, fmt.Errorf("kcenter: negative coreset multiplier %d", o.coresetMultiplier)
	}
	if o.ell < 0 {
		return o, fmt.Errorf("kcenter: negative partition count %d", o.ell)
	}
	if o.windowSize < 0 {
		return o, fmt.Errorf("kcenter: negative window size %d", o.windowSize)
	}
	if o.windowDuration < 0 {
		return o, fmt.Errorf("kcenter: negative window duration %d", o.windowDuration)
	}
	return o, nil
}

// defaultEll is the paper's memory-balancing partition count
// ell = sqrt(n/(k+z)).
func defaultEll(n, kz int) int {
	if kz <= 0 {
		kz = 1
	}
	ell := int(math.Sqrt(float64(n) / float64(kz)))
	if ell < 1 {
		ell = 1
	}
	return ell
}

// RunStats reports resource usage of a clustering call.
type RunStats struct {
	// Partitions is the number of partitions used in the first round.
	Partitions int
	// CoresetUnionSize is the number of points gathered by the second round.
	CoresetUnionSize int
	// LocalMemoryPeak is the largest number of points held by one worker.
	LocalMemoryPeak int
	// CoresetTime and FinalTime are the durations of the two rounds.
	CoresetTime time.Duration
	FinalTime   time.Duration
	// DistanceEvaluations is the number of distance evaluations spent inside
	// the greedy farthest-point (GMM) runs: every partition's coreset
	// construction plus, for Cluster and Gonzalez, the run that selects the
	// final centers. The textbook greedy needs (centers selected) x (points)
	// per run; on spaces that satisfy the triangle inequality the exact
	// pruning described in the README usually needs far fewer. The final
	// pass below and the outlier radius search are not counted.
	DistanceEvaluations int64
	// FinalPassEvaluations is what the final pass over the whole input — the
	// one that yields the radius and the assignment — spent: n*k when it
	// scans every center for every point, usually a small fraction of that
	// on spaces that satisfy the triangle inequality, where each point starts
	// from the center of its first-round proxy and evaluates only the
	// centers that start cannot rule out (same bits either way). Zero for
	// Gonzalez, whose greedy run already knows both.
	FinalPassEvaluations int64
}

// Clustering is the result of Cluster.
type Clustering struct {
	// Centers are the k selected centers.
	Centers Dataset
	// Radius is the maximum distance of any input point to its closest
	// center.
	Radius float64
	// Assignment maps each input point (by position) to the index of its
	// closest center.
	Assignment []int
	// Stats reports resource usage.
	Stats RunStats
}

// Cluster solves the k-center problem on points using the paper's 2-round
// coreset algorithm, with partitions processed on parallel goroutines. The
// approximation factor is 2+eps, where eps shrinks as the coreset multiplier
// (or precision parameter) grows.
func Cluster(points Dataset, k int, opts ...Option) (*Clustering, error) {
	if len(points) == 0 {
		return nil, errors.New("kcenter: empty dataset")
	}
	if err := streaming.CheckBatch(points, nil, 0, 0); err != nil {
		return nil, fmt.Errorf("kcenter: %w", err)
	}
	if k <= 0 {
		return nil, fmt.Errorf("kcenter: k must be positive, got %d", k)
	}
	if k >= len(points) {
		// Degenerate but legitimate: every point is a center.
		centers := points.Clone()
		return &Clustering{
			Centers:    centers,
			Radius:     0,
			Assignment: identityAssignment(len(points)),
			Stats:      RunStats{Partitions: 1, CoresetUnionSize: len(points), LocalMemoryPeak: len(points)},
		}, nil
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	ell := o.ell
	if ell == 0 {
		ell = defaultEll(len(points), k)
	}
	cfg := core.KCenterConfig{
		K:           k,
		Ell:         ell,
		Space:       o.space,
		Parallelism: o.parallelism,
		Workers:     o.workers,
	}
	if o.eps > 0 {
		cfg.Eps = o.eps
	} else {
		cfg.CoresetSize = o.coresetMultiplier * k
	}
	res, err := core.KCenter(points, cfg)
	if err != nil {
		return nil, err
	}
	return &Clustering{
		Centers:    res.Centers,
		Radius:     res.Radius,
		Assignment: res.Assignment,
		Stats: RunStats{
			Partitions:           ell,
			CoresetUnionSize:     res.CoresetUnionSize,
			LocalMemoryPeak:      res.LocalMemoryPeak,
			CoresetTime:          res.CoresetTime,
			FinalTime:            res.FinalTime,
			DistanceEvaluations:  res.DistanceEvaluations,
			FinalPassEvaluations: res.FinalPassEvaluations,
		},
	}, nil
}

// OutliersClustering is the result of ClusterWithOutliers.
type OutliersClustering struct {
	// Centers are the (at most k) selected centers.
	Centers Dataset
	// Radius is the maximum distance to the centers after discarding the z
	// farthest points.
	Radius float64
	// Outliers are the indices (into the input) of the z points farthest
	// from the centers — the points the clustering chose to disregard.
	Outliers []int
	// Assignment maps each input point to the index of its closest center;
	// outlier positions are assigned too (to their nearest center), callers
	// that want to exclude them should consult Outliers.
	Assignment []int
	// Stats reports resource usage.
	Stats RunStats
}

// ClusterWithOutliers solves the k-center problem with z outliers using the
// paper's 2-round coreset algorithm (deterministic partitioning by default,
// randomized with WithRandomizedPartitioning). The approximation factor is
// 3+eps.
func ClusterWithOutliers(points Dataset, k, z int, opts ...Option) (*OutliersClustering, error) {
	if len(points) == 0 {
		return nil, errors.New("kcenter: empty dataset")
	}
	if err := streaming.CheckBatch(points, nil, 0, 0); err != nil {
		return nil, fmt.Errorf("kcenter: %w", err)
	}
	if k <= 0 {
		return nil, fmt.Errorf("kcenter: k must be positive, got %d", k)
	}
	if z < 0 {
		return nil, fmt.Errorf("kcenter: z must be non-negative, got %d", z)
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if k+z >= len(points) {
		centers := points.Clone()
		if len(centers) > k {
			centers = centers[:k]
		}
		return &OutliersClustering{
			Centers:    centers,
			Radius:     0,
			Outliers:   nil,
			Assignment: metric.NewEngine(o.workers).Assign(o.space, points, centers),
			Stats:      RunStats{Partitions: 1, CoresetUnionSize: len(points), LocalMemoryPeak: len(points)},
		}, nil
	}
	ell := o.ell
	if ell == 0 {
		ell = defaultEll(len(points), k+z)
	}
	cfg := core.OutliersConfig{
		K:           k,
		Z:           z,
		Ell:         ell,
		Space:       o.space,
		Parallelism: o.parallelism,
		Workers:     o.workers,
		Randomized:  o.randomized,
		EpsHat:      0.25,
	}
	if o.randomized && o.seedSet {
		cfg.Rand = rand.New(rand.NewSource(o.seed))
	}
	if o.eps > 0 {
		// Theorem 2 uses epsHat = eps/6 both for the coreset rule and the
		// OutliersCluster slack.
		cfg.EpsHat = o.eps / 6
		cfg.CoresetSize = 0
	} else {
		ref := k + z
		if o.randomized {
			ref = k + 6*(z/ell+1)
		}
		cfg.CoresetSize = o.coresetMultiplier * ref
	}
	res, err := core.KCenterOutliers(points, cfg)
	if err != nil {
		return nil, err
	}
	return &OutliersClustering{
		Centers:    res.Centers,
		Radius:     res.Radius,
		Outliers:   farthestIndices(res.Distances, z),
		Assignment: res.Assignment,
		Stats: RunStats{
			Partitions:           ell,
			CoresetUnionSize:     res.CoresetUnionSize,
			LocalMemoryPeak:      res.LocalMemoryPeak,
			CoresetTime:          res.CoresetTime,
			FinalTime:            res.SolveTime,
			DistanceEvaluations:  res.DistanceEvaluations,
			FinalPassEvaluations: res.FinalPassEvaluations,
		},
	}, nil
}

// Gonzalez runs the classic sequential 2-approximation greedy (GMM) and
// returns k centers together with the clustering radius. It is the
// best-known-quality sequential baseline and the building block of every
// coreset construction in this library.
func Gonzalez(points Dataset, k int, opts ...Option) (*Clustering, error) {
	if len(points) == 0 {
		return nil, errors.New("kcenter: empty dataset")
	}
	if err := streaming.CheckBatch(points, nil, 0, 0); err != nil {
		return nil, fmt.Errorf("kcenter: %w", err)
	}
	if k <= 0 {
		return nil, fmt.Errorf("kcenter: k must be positive, got %d", k)
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	res, err := gmm.Runner{Space: o.space, Workers: o.workers}.Run(points, k, 0)
	if err != nil {
		return nil, err
	}
	return &Clustering{
		Centers:    res.Centers,
		Radius:     res.Radius,
		Assignment: res.Assignment,
		Stats:      RunStats{Partitions: 1, CoresetUnionSize: len(points), LocalMemoryPeak: len(points), DistanceEvaluations: res.Evaluations},
	}, nil
}

// Radius reports the k-center objective of a clustering: the maximum distance
// from any point to its nearest center. An empty center set yields +Inf for
// non-empty points. Points and centers are admitted as Cluster admits its
// input: no NaN or coordinate beyond ±2^500, one dimension for all. It accepts WithDistance and WithWorkers; as everywhere in
// the library, the result is bit-identical for every worker count.
func Radius(points, centers Dataset, opts ...Option) (float64, error) {
	if err := admitEvaluation(points, centers); err != nil {
		return 0, err
	}
	o, err := buildOptions(opts)
	if err != nil {
		return 0, err
	}
	return metric.NewEngine(o.workers).Radius(o.space, points, centers), nil
}

// RadiusExcluding reports the outlier-aware k-center objective: the maximum
// distance from points to centers after discarding the z points farthest from
// the centers. It returns 0 when z >= len(points). It admits its input as
// Radius does.
func RadiusExcluding(points, centers Dataset, z int, opts ...Option) (float64, error) {
	if err := admitEvaluation(points, centers); err != nil {
		return 0, err
	}
	if z < 0 {
		return 0, fmt.Errorf("kcenter: z must be non-negative, got %d", z)
	}
	o, err := buildOptions(opts)
	if err != nil {
		return 0, err
	}
	return metric.NewEngine(o.workers).RadiusExcluding(o.space, points, centers, z), nil
}

// admitEvaluation holds the inputs of Radius and RadiusExcluding to the
// stream admission rule: non-empty points as a batch, and non-empty centers
// as a batch of the points' dimension.
func admitEvaluation(points, centers Dataset) error {
	dim := 0
	if len(points) > 0 {
		if err := streaming.CheckBatch(points, nil, 0, 0); err != nil {
			return fmt.Errorf("kcenter: %w", err)
		}
		dim = len(points[0])
	}
	if len(centers) > 0 {
		if err := streaming.CheckBatch(centers, nil, dim, 0); err != nil {
			return fmt.Errorf("kcenter: centers: %w", err)
		}
	}
	return nil
}

// EstimateDoublingDimension reports an empirical estimate of the doubling
// dimension of the dataset, the parameter that governs the space-accuracy
// trade-off of every algorithm in this library. It is a sampling heuristic
// meant for diagnostics; the MapReduce algorithms never need it.
func EstimateDoublingDimension(points Dataset, opts ...Option) (float64, error) {
	if len(points) == 0 {
		return 0, errors.New("kcenter: empty dataset")
	}
	o, err := buildOptions(opts)
	if err != nil {
		return 0, err
	}
	return metric.NewEngine(o.workers).EstimateDoublingDimension(o.space, points, 8, 4, nil), nil
}

// farthestIndices returns the indices of the z points farthest from their
// closest center, given each point's nearest-center distance (the outliers
// implied by a clustering): farthest first, the lower index first among equal
// distances. cmp.Compare ranks NaN below every distance, which makes that order
// total. One pass over dists keeps the z points that come first so far in a
// heap, so the selection costs O(n log z) and does not depend on how dists was
// computed.
func farthestIndices(dists []float64, z int) []int {
	if z <= 0 || len(dists) == 0 {
		return nil
	}
	z = min(z, len(dists))
	// order is negative when point i comes before point j in the output.
	order := func(i, j int) int {
		return cmp.Or(cmp.Compare(dists[j], dists[i]), cmp.Compare(i, j))
	}
	// heap is a max-heap under order: its root is the kept point that comes
	// last, the one a farther point replaces.
	heap := make([]int, z)
	for i := range heap {
		heap[i] = i
	}
	siftDown := func(i int) {
		for {
			last := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < z && order(heap[c], heap[last]) > 0 {
					last = c
				}
			}
			if last == i {
				return
			}
			heap[i], heap[last] = heap[last], heap[i]
			i = last
		}
	}
	for i := z/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for i := z; i < len(dists); i++ {
		// i is above every kept index, so it replaces the root only when it
		// is strictly farther.
		if cmp.Compare(dists[i], dists[heap[0]]) > 0 {
			heap[0] = i
			siftDown(0)
		}
	}
	slices.SortFunc(heap, order)
	return heap
}

func identityAssignment(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
