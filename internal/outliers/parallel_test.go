package outliers

import (
	"math/rand"
	"testing"

	"coresetclustering/internal/metric"
)

func parallelTestSet(n, dim int, seed int64) metric.WeightedSet {
	rng := rand.New(rand.NewSource(seed))
	out := make(metric.WeightedSet, n)
	for i := range out {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		out[i] = metric.WeightedPoint{P: p, W: 1 + int64(rng.Intn(5))}
	}
	return out
}

// TestSolveDeterminismAcrossWorkers: the radius search (parallel pairwise
// matrix + parallel covering scans) must settle on bit-identical centers,
// radius and uncovered weight for any worker count, under both search
// strategies.
func TestSolveDeterminismAcrossWorkers(t *testing.T) {
	// The binary + geometric search runs at a size that engages the engine's
	// chunking; the exhaustive scan is quadratic in both set size and
	// candidate count, so it uses a small instance (still a determinism
	// check, just without multi-chunk parallelism).
	sets := map[SearchStrategy]metric.WeightedSet{
		SearchBinaryGeometric: parallelTestSet(700, 3, 5),
		SearchExhaustive:      parallelTestSet(120, 3, 5),
	}
	for strategy, set := range sets {
		want, err := SolveIn(metric.EuclideanSpace, set, 8, 25, 0.25, strategy, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 2, 8} {
			got, err := SolveIn(metric.EuclideanSpace, set, 8, 25, 0.25, strategy, w)
			if err != nil {
				t.Fatal(err)
			}
			if got.Radius != want.Radius {
				t.Fatalf("strategy=%d w=%d: radius = %v, want %v", strategy, w, got.Radius, want.Radius)
			}
			if got.UncoveredWeight != want.UncoveredWeight {
				t.Fatalf("strategy=%d w=%d: uncovered = %d, want %d", strategy, w, got.UncoveredWeight, want.UncoveredWeight)
			}
			if got.Evaluations != want.Evaluations {
				t.Fatalf("strategy=%d w=%d: evaluations = %d, want %d", strategy, w, got.Evaluations, want.Evaluations)
			}
			if len(got.CenterIndices) != len(want.CenterIndices) {
				t.Fatalf("strategy=%d w=%d: %d centers, want %d", strategy, w, len(got.CenterIndices), len(want.CenterIndices))
			}
			for i := range want.CenterIndices {
				if got.CenterIndices[i] != want.CenterIndices[i] {
					t.Fatalf("strategy=%d w=%d: center %d = %d, want %d",
						strategy, w, i, got.CenterIndices[i], want.CenterIndices[i])
				}
			}
		}
	}
}

// TestSolveDistanceBudgetAcrossWorkers: a whole solve must cost exactly
// n*(n-1)/2 distance evaluations regardless of the worker count — the
// half-matrix contract of pairwiseMatrix, with the candidate radii and every
// probe read from that matrix.
func TestSolveDistanceBudgetAcrossWorkers(t *testing.T) {
	set := parallelTestSet(600, 2, 9)
	n := int64(len(set))
	for _, w := range []int{1, 8} {
		c := metric.NewCounter(metric.Euclidean)
		if _, err := SolveIn(metric.SpaceFor(c.Distance), set, 5, 10, 0, SearchBinaryGeometric, w); err != nil {
			t.Fatal(err)
		}
		want := n * (n - 1) / 2
		if got := c.Calls(); got != want {
			t.Fatalf("workers=%d: %d distance calls, want exactly %d", w, got, want)
		}
	}
}
