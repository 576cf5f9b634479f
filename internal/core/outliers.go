package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"coresetclustering/internal/coreset"
	"coresetclustering/internal/mapreduce"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/outliers"
)

// OutliersConfig configures the 2-round MapReduce algorithm for the k-center
// problem with z outliers (Section 3.2 of the paper), in both its
// deterministic and randomized-partitioning variants.
type OutliersConfig struct {
	// K is the number of centers, Z the outlier budget.
	K int
	Z int
	// Ell is the number of partitions.
	Ell int
	// EpsHat is the precision parameter. It drives the coreset stopping rule
	// when CoresetSize is zero, and it is always the slack parameter of the
	// weighted OutliersCluster run in the second round (epsHat = 0 means the
	// exact radii of the original Charikar et al. algorithm).
	EpsHat float64
	// CoresetSize, when positive, fixes the per-partition coreset size
	// directly (the experiments use mu*(K+Z) deterministically and
	// mu*(K+6*Z/Ell) for the randomized variant). When zero, the eps-driven
	// stopping rule with reference K+Z (or K+Z') centers is used and EpsHat
	// must be positive.
	CoresetSize int
	// Randomized selects the randomized variant of Section 3.2.1: points are
	// partitioned uniformly at random and the per-partition reference center
	// count becomes K + Z' with Z' = 6*(Z/Ell + log2|S|).
	Randomized bool
	// Rand seeds the random partitioner of the randomized variant; nil uses a
	// fixed seed. Ignored when Randomized is false or Partitioner is set.
	Rand *rand.Rand
	// Space is the metric space driving every distance-dominated pass
	// (batched kernels + comparison-domain surrogate); nil defaults to
	// Euclidean.
	Space metric.Space
	// Partitioner overrides the default partitioner (uniform for the
	// deterministic variant, random for the randomized one). The Figure 4
	// experiment uses an adversarial partitioner here.
	Partitioner mapreduce.Partitioner
	// Parallelism bounds the number of partitions processed concurrently;
	// zero means one goroutine per available CPU.
	Parallelism int
	// Workers is the parallelism degree of the distance engine used inside
	// every distance-dominated pass (per-partition GMM, final radius over the
	// full input): <= 0 selects one worker per CPU, 1 forces the sequential
	// path. Results are bit-identical for any value. In the first round the
	// budget is divided among the concurrently running partitions.
	Workers int
	// MaxCoresetSize caps the eps-driven per-partition coreset size
	// (0 = unbounded); ignored by the fixed-size rule.
	MaxCoresetSize int
	// SearchStrategy selects the radius-search strategy of the second round;
	// the zero value is the paper's binary + geometric search.
	SearchStrategy outliers.SearchStrategy
}

func (c *OutliersConfig) normalize(n int) error {
	if n == 0 {
		return ErrEmptyInput
	}
	if c.K <= 0 || c.K >= n {
		return fmt.Errorf("%w: k=%d, |S|=%d", ErrInvalidK, c.K, n)
	}
	if c.Z < 0 || c.K+c.Z >= n {
		return fmt.Errorf("%w: k=%d z=%d |S|=%d", ErrInvalidZ, c.K, c.Z, n)
	}
	if c.Ell <= 0 {
		return ErrInvalidEll
	}
	if c.EpsHat < 0 {
		return fmt.Errorf("%w: negative epsHat %v", ErrInvalidSpec, c.EpsHat)
	}
	if c.CoresetSize < 0 {
		return fmt.Errorf("%w: negative coreset size %d", ErrInvalidSpec, c.CoresetSize)
	}
	if c.CoresetSize == 0 && c.EpsHat == 0 {
		return fmt.Errorf("%w: need CoresetSize > 0 or EpsHat > 0", ErrInvalidSpec)
	}
	if c.Space == nil {
		c.Space = metric.EuclideanSpace
	}
	if c.Partitioner == nil {
		if c.Randomized {
			c.Partitioner = mapreduce.RandomPartitioner{Rand: c.Rand}
		} else {
			c.Partitioner = mapreduce.UniformPartitioner{}
		}
	}
	return nil
}

// randomizedOutlierBound returns z' = 6*(z/ell + log2 n), the high-probability
// per-partition outlier bound of Lemma 7.
func randomizedOutlierBound(z, ell, n int) int {
	if ell <= 0 {
		ell = 1
	}
	zp := 6 * (float64(z)/float64(ell) + math.Log2(float64(n)))
	return int(math.Ceil(zp))
}

// OutliersResult is the outcome of the 2-round MapReduce algorithm for
// k-center with z outliers.
type OutliersResult struct {
	// Centers are the (at most K) centers returned by the second round.
	Centers metric.Dataset
	// Radius is the outlier-aware radius over the full input: the maximum
	// distance to the centers after discarding the Z farthest points.
	Radius float64
	// Distances and Assignment hold every input point's distance to and the
	// index of its closest center, from the same nearest-center pass that
	// produced Radius.
	Distances  []float64
	Assignment []int
	// DistanceEvaluations is the number of distance evaluations the
	// first-round GMM runs performed (every partition's coreset); the
	// second-round radius search is not counted.
	DistanceEvaluations int64
	// FinalPassEvaluations is what the final radius/assignment pass over the
	// whole input spent: |S|*K when it runs dense, usually a small fraction
	// of that when every point's first-round proxy hints at its center.
	FinalPassEvaluations int64
	// SearchRadius is the candidate radius the second-round search settled
	// on (r~min in the paper).
	SearchRadius float64
	// UncoveredWeight is the aggregate coreset weight left uncovered at the
	// chosen radius (at most Z by construction).
	UncoveredWeight int64
	// CoresetUnionSize is |T|, the size of the union of the weighted
	// coresets gathered by the second round.
	CoresetUnionSize int
	// ReferenceCenters is the per-partition reference center count used by
	// the coreset construction: K+Z deterministically, K+Z' randomized.
	ReferenceCenters int
	// LocalMemoryPeak is the largest number of points held by one reducer.
	LocalMemoryPeak int
	// CoresetTime and SolveTime are the durations of the two rounds; Figure 7
	// reports them separately.
	CoresetTime time.Duration
	SolveTime   time.Duration
	// RadiusEvaluations counts the OutliersCluster invocations of the search.
	RadiusEvaluations int
	// PartitionSizes and CoresetSizes record |S_i| and |T_i| per partition.
	PartitionSizes []int
	CoresetSizes   []int
}

// KCenterOutliers runs the 2-round MapReduce algorithm for the k-center
// problem with z outliers. Round 1 builds a weighted composable coreset on
// every partition (incremental GMM with reference K+Z centers, or K+Z' for
// the randomized variant); round 2 gathers the weighted union and runs the
// radius search over OutliersCluster to extract the final centers.
func KCenterOutliers(points metric.Dataset, cfg OutliersConfig) (*OutliersResult, error) {
	if err := cfg.normalize(len(points)); err != nil {
		return nil, err
	}

	lay, err := split(cfg.Partitioner, points, cfg.Ell)
	if err != nil {
		return nil, err
	}
	parts := lay.parts

	refCenters := cfg.K + cfg.Z
	if cfg.Randomized {
		refCenters = cfg.K + randomizedOutlierBound(cfg.Z, cfg.Ell, len(points))
	}

	exec := mapreduce.ExecConfig{Parallelism: cfg.Parallelism, Workers: cfg.Workers}
	spec := coreset.Spec{
		Eps:        cfg.EpsHat,
		Size:       cfg.CoresetSize,
		RefCenters: refCenters,
		MaxSize:    cfg.MaxCoresetSize,
		Workers:    exec.PerPartitionWorkers(len(parts)),
		Space:      cfg.Space,
	}
	if cfg.CoresetSize > 0 {
		// Fixed-size rule: Spec requires exactly one of Eps/Size.
		spec.Eps = 0
	}

	// Round 1: per-partition weighted coresets.
	start := time.Now()
	coresets, execStats, err := mapreduce.MapPartitions(
		exec,
		parts,
		func(i int, part metric.Dataset) (*coreset.Coreset, error) {
			if len(part) == 0 {
				return nil, nil
			}
			return coreset.Build(nil, part, spec)
		},
	)
	if err != nil {
		return nil, err
	}
	coresetTime := time.Since(start)

	union := coreset.Union(coresets...)
	if len(union) == 0 {
		return nil, errors.New("core: empty coreset union")
	}

	// Round 2: radius search over the weighted union.
	start = time.Now()
	solved, err := outliers.SolveIn(cfg.Space, union, cfg.K, int64(cfg.Z), cfg.EpsHat, cfg.SearchStrategy, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: second-round solve failed: %w", err)
	}
	solveTime := time.Since(start)

	// One nearest-center pass gives the radius, the distances the caller
	// picks the outliers from, and the assignment. It starts every point
	// from the center nearest to its first-round proxy; the solver does not
	// assign the union, so that is one small Assign, made only if the pass
	// takes hints and counted with it.
	eng := metric.NewEngine(cfg.Workers)
	var hintEvals int64
	hints := lay.proxyHints(len(points), coresets, func() []int {
		hintEvals = int64(len(union)) * int64(len(solved.Centers))
		return eng.Assign(cfg.Space, union.Points(), solved.Centers)
	})
	dists, assignment, radius, tailEvals := eng.NearestRadius(cfg.Space, points, solved.Centers, cfg.Z, hints)
	res := &OutliersResult{
		Centers:              solved.Centers,
		Radius:               radius,
		Distances:            dists,
		Assignment:           assignment,
		FinalPassEvaluations: tailEvals + hintEvals,
		SearchRadius:         solved.Radius,
		UncoveredWeight:      solved.UncoveredWeight,
		CoresetUnionSize:     len(union),
		ReferenceCenters:     refCenters,
		LocalMemoryPeak:      maxInt(execStats.LocalMemoryPeak, len(union)),
		CoresetTime:          coresetTime,
		SolveTime:            solveTime,
		RadiusEvaluations:    solved.Evaluations,
		PartitionSizes:       make([]int, len(parts)),
		CoresetSizes:         make([]int, len(coresets)),
	}
	for i, p := range parts {
		res.PartitionSizes[i] = len(p)
	}
	for i, c := range coresets {
		if c != nil {
			res.CoresetSizes[i] = c.Size()
			res.DistanceEvaluations += c.Evaluations
		}
	}
	return res, nil
}

// SequentialKCenterOutliers is the ell = 1 instantiation of KCenterOutliers:
// the paper's "improved sequential algorithm", which builds a single coreset
// of the whole input and then runs the radius search on it. Its running time
// is O(|S||T| + |T|^2 log|T|) — the search makes O(log|T|) OutliersCluster
// evaluations of O(|T|^2) each whatever k is, and orders its candidate radii
// in time linear in their number — a large improvement over the
// O(|S|^2 log|S|) of the same search run on the whole input (the CharikarEtAl
// baseline) for |T| << |S|.
func SequentialKCenterOutliers(points metric.Dataset, k, z, coresetSize int, epsHat float64, sp metric.Space) (*OutliersResult, error) {
	return KCenterOutliers(points, OutliersConfig{
		K:           k,
		Z:           z,
		Ell:         1,
		EpsHat:      epsHat,
		CoresetSize: coresetSize,
		Space:       sp,
		Parallelism: 1,
		Workers:     1,
	})
}
