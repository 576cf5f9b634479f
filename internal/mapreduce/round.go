// Package mapreduce provides the in-process MapReduce/MPC substrate on which
// the paper's 2-round algorithms run in this repository (standing in for the
// 16-node Spark cluster of the original experiments). The clustering
// algorithms are "reducer-heavy" — their map phase is a trivial
// constant-space key assignment — so the substrate is exactly what they use:
// a Partitioner that distributes the input over ell reducers, and
// MapPartitions, which runs one function per partition on parallel
// goroutines with local- and aggregate-memory accounting in the spirit of
// the MR(ML, MA) model.
package mapreduce

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"coresetclustering/internal/metric"
)

// ExecStats records the resource usage of a per-partition parallel round, in
// the units the paper's analysis uses: points held in local memory.
type ExecStats struct {
	// LocalMemoryPeak is the largest number of points processed by any single
	// worker (|S|/ell in the first round, |T| in the second).
	LocalMemoryPeak int
	// AggregateMemory is the total number of points across all workers.
	AggregateMemory int
	// Elapsed is the wall-clock time of the round.
	Elapsed time.Duration
	// Workers is the number of goroutines that executed the round.
	Workers int
}

// ExecConfig controls how per-partition work is scheduled.
type ExecConfig struct {
	// Parallelism is the maximum number of partitions processed concurrently.
	// Zero means "as many as there are CPUs" — GOMAXPROCS, the number that
	// can actually run, which is also what the distance engine and
	// PerPartitionWorkers count. The Figure 7 experiment varies this to
	// measure scalability with the number of processors.
	Parallelism int
	// Workers is the total distance-engine parallelism budget of the round:
	// the reducers divide it among the partitions running concurrently (see
	// PerPartitionWorkers). <= 0 means one worker per CPU.
	Workers int
}

func (c ExecConfig) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// PerPartitionWorkers returns the distance-engine parallelism each of the
// round's reducers should use so that the concurrently running partitions
// share cfg.Workers evenly without oversubscribing: floor(total/concurrent),
// never below 1. parts is the number of partitions of the round; fewer
// partitions than the configured parallelism leave more workers to each.
func (c ExecConfig) PerPartitionWorkers(parts int) int {
	total := c.Workers
	if total <= 0 {
		// Match the distance engine's definition of "one worker per CPU"
		// (GOMAXPROCS, which respects cgroup-style quotas, not NumCPU).
		total = runtime.GOMAXPROCS(0)
	}
	concurrent := c.parallelism()
	if parts > 0 && parts < concurrent {
		concurrent = parts
	}
	if concurrent < 1 {
		concurrent = 1
	}
	per := total / concurrent
	if per < 1 {
		per = 1
	}
	return per
}

// MapPartitions applies fn to every partition concurrently (bounded by the
// configured parallelism) and collects the per-partition results in order.
// It models the first round of the paper's algorithms, where reducer i
// receives partition S_i and computes its coreset T_i. Empty partitions are
// passed through to fn, which may handle them (typically by returning a zero
// result); an error from any partition aborts the round.
func MapPartitions[T any](cfg ExecConfig, parts []metric.Dataset, fn func(i int, part metric.Dataset) (T, error)) ([]T, ExecStats, error) {
	stats := ExecStats{Workers: cfg.parallelism()}
	if fn == nil {
		return nil, stats, errors.New("mapreduce: nil partition function")
	}
	start := time.Now()
	for _, p := range parts {
		stats.AggregateMemory += len(p)
		if len(p) > stats.LocalMemoryPeak {
			stats.LocalMemoryPeak = len(p)
		}
	}

	results := make([]T, len(parts))
	errs := make([]error, len(parts))
	sem := make(chan struct{}, cfg.parallelism())
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := fn(i, parts[i])
			if err != nil {
				errs[i] = fmt.Errorf("mapreduce: partition %d: %w", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	return results, stats, nil
}
