package core

import (
	"errors"
	"fmt"
	"time"

	"coresetclustering/internal/coreset"
	"coresetclustering/internal/gmm"
	"coresetclustering/internal/mapreduce"
	"coresetclustering/internal/metric"
)

// Common configuration errors.
var (
	ErrEmptyInput   = errors.New("core: empty input dataset")
	ErrInvalidK     = errors.New("core: k must be positive and smaller than |S|")
	ErrInvalidEll   = errors.New("core: number of partitions ell must be positive")
	ErrInvalidSpec  = errors.New("core: exactly one of Eps and CoresetSize must be positive")
	ErrInvalidZ     = errors.New("core: z must be non-negative and k+z must be smaller than |S|")
	ErrNilPartition = errors.New("core: nil partitioner")
)

// KCenterConfig configures the 2-round MapReduce algorithm for the k-center
// problem (Section 3.1 of the paper).
type KCenterConfig struct {
	// K is the number of centers.
	K int
	// Ell is the number of partitions (the parallelism of the first round).
	Ell int
	// Eps is the precision parameter of the coreset stopping rule, which
	// runs until it holds or the partition is exhausted. Exactly one of Eps
	// and CoresetSize must be positive.
	Eps float64
	// CoresetSize is the per-partition coreset size tau (the experiments use
	// tau = mu*K). Exactly one of Eps and CoresetSize must be positive.
	CoresetSize int
	// Space is the metric space driving every distance-dominated pass
	// (batched kernels + comparison-domain surrogate); nil defaults to
	// Euclidean.
	Space metric.Space
	// Partitioner splits the input in the first round; nil defaults to
	// UniformPartitioner (the paper's equal-size split).
	Partitioner mapreduce.Partitioner
	// Parallelism bounds the number of partitions processed concurrently;
	// zero means one goroutine per available CPU.
	Parallelism int
	// Workers is the parallelism degree of the distance engine used inside
	// every distance-dominated pass (per-partition GMM, final GMM, radius
	// over the full input): <= 0 selects one worker per CPU, 1 forces the
	// sequential path. Results are bit-identical for any value. In the first
	// round the budget is divided among the concurrently running partitions.
	Workers int
}

func (c *KCenterConfig) normalize(n int) error {
	if n == 0 {
		return ErrEmptyInput
	}
	if c.K <= 0 || c.K >= n {
		return fmt.Errorf("%w: k=%d, |S|=%d", ErrInvalidK, c.K, n)
	}
	if c.Ell <= 0 {
		return ErrInvalidEll
	}
	if (c.Eps > 0) == (c.CoresetSize > 0) {
		return fmt.Errorf("%w: eps=%v coresetSize=%d", ErrInvalidSpec, c.Eps, c.CoresetSize)
	}
	if c.Eps < 0 || c.CoresetSize < 0 {
		return fmt.Errorf("%w: eps=%v coresetSize=%d", ErrInvalidSpec, c.Eps, c.CoresetSize)
	}
	if c.Space == nil {
		c.Space = metric.EuclideanSpace
	}
	if c.Partitioner == nil {
		c.Partitioner = mapreduce.UniformPartitioner{}
	}
	return nil
}

// KCenterResult is the outcome of the 2-round MapReduce k-center algorithm.
type KCenterResult struct {
	// Centers are the K centers returned by the second round.
	Centers metric.Dataset
	// Radius is r_T(S) computed over the full input (the clustering radius).
	Radius float64
	// Assignment maps every input point to the index of its closest center,
	// from the same nearest-center pass that produced Radius.
	Assignment []int
	// DistanceEvaluations is the number of distance evaluations the GMM runs
	// of both rounds performed (every partition's coreset plus the run on
	// the union). The textbook loop needs sum_i |S_i|*|T_i| + |T|*K.
	DistanceEvaluations int64
	// FinalPassEvaluations is what the final radius/assignment pass over the
	// whole input spent on top: |S|*K when it runs dense, usually a small
	// fraction of that when every point's first-round proxy hints at its
	// center (see metric.Engine.NearestRadius).
	FinalPassEvaluations int64
	// CoresetUnionSize is |T|, the number of points gathered by the second
	// round's reducer.
	CoresetUnionSize int
	// LocalMemoryPeak is the largest number of points held by a single
	// reducer across the two rounds (max of |S|/ell and |T|).
	LocalMemoryPeak int
	// CoresetTime and FinalTime are the wall-clock durations of the first
	// round (coreset construction) and of the second round (GMM on the
	// union).
	CoresetTime time.Duration
	FinalTime   time.Duration
	// PartitionSizes records |S_i| for each partition.
	PartitionSizes []int
	// CoresetSizes records |T_i| for each partition.
	CoresetSizes []int
}

// KCenter runs the deterministic 2-round MapReduce algorithm for the k-center
// problem: round 1 builds a composable coreset on every partition with
// incremental GMM; round 2 gathers the union of the coresets and runs GMM on
// it to select the final K centers.
func KCenter(points metric.Dataset, cfg KCenterConfig) (*KCenterResult, error) {
	if err := cfg.normalize(len(points)); err != nil {
		return nil, err
	}

	lay, err := split(cfg.Partitioner, points, cfg.Ell)
	if err != nil {
		return nil, err
	}
	parts := lay.parts

	// Round 1: per-partition coresets, each using an even share of the
	// distance-engine worker budget.
	exec := mapreduce.ExecConfig{Parallelism: cfg.Parallelism, Workers: cfg.Workers}
	spec := coreset.Spec{
		Eps:        cfg.Eps,
		Size:       cfg.CoresetSize,
		RefCenters: cfg.K,
		Workers:    exec.PerPartitionWorkers(len(parts)),
		Space:      cfg.Space,
	}
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

	union := coreset.UnionPoints(coresets...)
	if len(union) == 0 {
		return nil, errors.New("core: empty coreset union")
	}

	// Round 2: GMM on the union of the coresets.
	start = time.Now()
	final, err := gmm.Runner{Space: cfg.Space, Workers: cfg.Workers}.Run(union, cfg.K, 0)
	if err != nil {
		return nil, fmt.Errorf("core: final GMM failed: %w", err)
	}
	finalTime := time.Since(start)

	// One nearest-center pass gives the radius and the assignment. Round 1
	// told every point its proxy and round 2 every proxy its center: the
	// pass starts each point from there.
	hints := lay.proxyHints(len(points), coresets, func() []int { return final.Assignment })
	_, assignment, radius, tailEvals := metric.NewEngine(cfg.Workers).NearestRadius(cfg.Space, points, final.Centers, 0, hints)
	res := &KCenterResult{
		Centers:              final.Centers,
		Radius:               radius,
		Assignment:           assignment,
		FinalPassEvaluations: tailEvals,
		CoresetUnionSize:     len(union),
		LocalMemoryPeak:      maxInt(execStats.LocalMemoryPeak, len(union)),
		CoresetTime:          coresetTime,
		FinalTime:            finalTime,
		PartitionSizes:       make([]int, len(parts)),
		CoresetSizes:         make([]int, len(coresets)),
	}
	res.DistanceEvaluations = final.Evaluations
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

// layout remembers how the first round split the input, which is what lets
// the final pass be hinted.
type layout struct {
	parts []metric.Dataset
	// origins[i][j] is the input index of parts[i][j]; nil means the parts
	// are consecutive ranges of the input.
	origins [][]int
}

func split(p mapreduce.Partitioner, points metric.Dataset, ell int) (layout, error) {
	parts, origins, err := p.PartitionOrigins(points, ell)
	if err != nil {
		return layout{}, fmt.Errorf("core: partitioning failed: %w", err)
	}
	return layout{parts: parts, origins: origins}, nil
}

// proxyHints returns the hints of the final pass, for NearestRadius to call
// if it takes them: in input order, the center that unionCenter says the
// second round gave to each point's first-round proxy. unionCenter()[u]
// belongs to the u-th point of the coreset union (coresets in partition
// order, the nil ones of empty parts left out).
func (lay layout) proxyHints(n int, coresets []*coreset.Coreset, unionCenter func() []int) func() []int {
	return func() []int {
		center := unionCenter()
		hints := make([]int, n)
		start, off := 0, 0 // of the part: its first point in a consecutive input, its first proxy in the union
		for i, cs := range coresets {
			if cs == nil {
				continue
			}
			for j, proxy := range cs.Assignment {
				at := start + j
				if lay.origins != nil {
					at = lay.origins[i][j]
				}
				hints[at] = center[off+proxy]
			}
			start += len(cs.Assignment)
			off += len(cs.Points)
		}
		return hints
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
