package mapreduce

import (
	"errors"
	"fmt"
	"math/rand"

	"coresetclustering/internal/metric"
)

// Partitioner splits a dataset into ell parts, the first-round distribution of
// the 2-round algorithms. Implementations must return exactly ell parts whose
// concatenation is a permutation of the input; empty parts are allowed when
// ell exceeds the input size.
type Partitioner interface {
	// Partition splits points into ell parts.
	Partition(points metric.Dataset, ell int) ([]metric.Dataset, error)
	// Name identifies the partitioner in experiment reports.
	Name() string
}

// OriginPartitioner is the optional capability of a Partitioner that can say
// where every point of every part came from, which lets the solvers carry
// per-point knowledge gained on the parts (a point's first-round proxy) back
// to input order. All partitioners of this package have it.
type OriginPartitioner interface {
	Partitioner
	// PartitionOrigins is Partition plus origins[i][j], the index in points
	// of parts[i][j]. A nil origins means the parts are consecutive
	// contiguous ranges of the input: parts[i][j] is the point at the summed
	// lengths of the parts before i, plus j.
	PartitionOrigins(points metric.Dataset, ell int) (parts []metric.Dataset, origins [][]int, err error)
}

// ErrInvalidPartitions is returned when ell is not positive.
var ErrInvalidPartitions = errors.New("mapreduce: number of partitions must be positive")

// UniformPartitioner assigns points to parts in contiguous equally-sized
// blocks (the deterministic "split into ell subsets of equal size" of the
// paper's deterministic algorithms).
type UniformPartitioner struct{}

// Name implements Partitioner.
func (UniformPartitioner) Name() string { return "uniform" }

// Partition implements Partitioner.
func (UniformPartitioner) Partition(points metric.Dataset, ell int) ([]metric.Dataset, error) {
	if ell <= 0 {
		return nil, ErrInvalidPartitions
	}
	parts := make([]metric.Dataset, ell)
	ranges := splitIndexes(len(points), ell)
	for i, r := range ranges {
		parts[i] = points[r[0]:r[1]]
	}
	return parts, nil
}

// PartitionOrigins implements OriginPartitioner: the parts are consecutive
// ranges, so there is nothing to report.
func (up UniformPartitioner) PartitionOrigins(points metric.Dataset, ell int) ([]metric.Dataset, [][]int, error) {
	parts, err := up.Partition(points, ell)
	return parts, nil, err
}

// splitIndexes divides [0,n) into at most parts contiguous half-open ranges of
// near-equal length. Empty ranges are omitted.
func splitIndexes(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	if parts <= 0 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	base := n / parts
	rem := n % parts
	start := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}

// RandomPartitioner assigns each point to a part chosen uniformly and
// independently at random — the first round of the randomized algorithm of
// Section 3.2.1. A nil Rand uses a fixed seed so runs are reproducible unless
// the caller opts into true randomness.
type RandomPartitioner struct {
	Rand *rand.Rand
}

// Name implements Partitioner.
func (RandomPartitioner) Name() string { return "random" }

// Partition implements Partitioner.
func (rp RandomPartitioner) Partition(points metric.Dataset, ell int) ([]metric.Dataset, error) {
	parts, _, err := rp.PartitionOrigins(points, ell)
	return parts, err
}

// PartitionOrigins implements OriginPartitioner.
func (rp RandomPartitioner) PartitionOrigins(points metric.Dataset, ell int) ([]metric.Dataset, [][]int, error) {
	if ell <= 0 {
		return nil, nil, ErrInvalidPartitions
	}
	rng := rp.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(0x5eed))
	}
	parts, origins := make([]metric.Dataset, ell), make([][]int, ell)
	for idx, p := range points {
		i := rng.Intn(ell)
		parts[i] = append(parts[i], p)
		origins[i] = append(origins[i], idx)
	}
	return parts, origins, nil
}

// AdversarialPartitioner places a designated set of point indices (the
// injected outliers of the experiments) all in the first part and spreads the
// remaining points round-robin over all parts. This is the adversarial
// placement used by Figure 4 to stress the deterministic algorithm.
type AdversarialPartitioner struct {
	// Targeted holds the indices (into the input dataset) forced into part 0.
	Targeted []int
}

// Name implements Partitioner.
func (AdversarialPartitioner) Name() string { return "adversarial" }

// Partition implements Partitioner.
func (ap AdversarialPartitioner) Partition(points metric.Dataset, ell int) ([]metric.Dataset, error) {
	parts, _, err := ap.PartitionOrigins(points, ell)
	return parts, err
}

// PartitionOrigins implements OriginPartitioner.
func (ap AdversarialPartitioner) PartitionOrigins(points metric.Dataset, ell int) ([]metric.Dataset, [][]int, error) {
	if ell <= 0 {
		return nil, nil, ErrInvalidPartitions
	}
	targeted := make(map[int]bool, len(ap.Targeted))
	for _, i := range ap.Targeted {
		if i < 0 || i >= len(points) {
			return nil, nil, fmt.Errorf("mapreduce: targeted index %d out of range [0,%d)", i, len(points))
		}
		targeted[i] = true
	}
	parts, origins := make([]metric.Dataset, ell), make([][]int, ell)
	next := 0
	for i, p := range points {
		to := 0
		if !targeted[i] {
			to = next % ell
			next++
		}
		parts[to] = append(parts[to], p)
		origins[to] = append(origins[to], i)
	}
	return parts, origins, nil
}
