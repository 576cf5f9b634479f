// Package experiments reproduces the evaluation section of the paper
// (Figures 2 through 8). Each figure has a Config with laptop-scale defaults,
// a Run function that executes the corresponding parameter sweep, and a result
// type that renders the same rows/series the paper plots.
//
// Sizes default to a small fraction of the original experiments (which used
// up to 1.2 billion points on a 16-node Spark cluster); every size and
// parameter is configurable so the sweeps can be scaled up on bigger hardware.
// The quantity reported as "ratio" follows the paper's protocol: the radius of
// the returned clustering divided by the best radius ever found for the same
// dataset and parameter configuration within the run.
package experiments

import (
	"fmt"
	"time"

	"coresetclustering/internal/dataset"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/streaming"
)

// Workload bundles a named dataset instance (with optional injected outliers)
// used by a figure run.
type Workload struct {
	// Name identifies the dataset family.
	Name dataset.Name
	// Points is the dataset, outliers included (when Z > 0 they occupy the
	// trailing positions and their indices are listed in OutlierIndices).
	Points metric.Dataset
	// K is the number of centers used for this dataset.
	K int
	// Z is the number of injected outliers (0 for the k-center experiments).
	Z int
	// OutlierIndices are the indices of the injected outliers within Points.
	OutlierIndices []int
}

// buildWorkloads generates one workload per requested dataset family.
func buildWorkloads(names []dataset.Name, n int, k func(dataset.Name) int, z int, seed int64) ([]Workload, error) {
	if len(names) == 0 {
		names = dataset.Names()
	}
	out := make([]Workload, 0, len(names))
	for i, name := range names {
		pts, err := dataset.Generate(name, n, seed+int64(i)*1001)
		if err != nil {
			return nil, fmt.Errorf("experiments: generating %s: %w", name, err)
		}
		w := Workload{Name: name, Points: pts, K: k(name), Z: z}
		if z > 0 {
			inj, err := dataset.InjectOutliers(pts, z, seed+int64(i)*2003)
			if err != nil {
				return nil, fmt.Errorf("experiments: injecting outliers into %s: %w", name, err)
			}
			w.Points = inj.Points
			w.OutlierIndices = inj.OutlierIndices
		}
		out = append(out, w)
	}
	return out, nil
}

// ratioTracker implements the paper's empirical approximation-ratio protocol:
// radii are registered per group key (dataset name), and ratios are computed
// against the smallest radius seen in the group.
type ratioTracker struct {
	best map[string]float64
}

func newRatioTracker() *ratioTracker {
	return &ratioTracker{best: make(map[string]float64)}
}

// observe registers a radius for the group.
func (rt *ratioTracker) observe(group string, radius float64) {
	if cur, ok := rt.best[group]; !ok || radius < cur {
		rt.best[group] = radius
	}
}

// ratio returns radius divided by the best radius of the group.
func (rt *ratioTracker) ratio(group string, radius float64) float64 {
	return Ratio(radius, rt.best[group])
}

// timeIt measures the wall-clock duration of fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// feedStream times one pass of points through a streaming algorithm.
func feedStream(proc streaming.Processor, points metric.Dataset) (time.Duration, error) {
	return timeIt(func() error {
		for _, p := range points {
			if err := proc.Process(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// defaultRuns is the default number of repetitions per configuration. The
// paper averages over at least 10 runs; the laptop-scale default keeps the
// sweeps fast while still producing confidence intervals.
const defaultRuns = 3

// clampRuns normalises a run count.
func clampRuns(r int) int {
	if r <= 0 {
		return defaultRuns
	}
	return r
}
