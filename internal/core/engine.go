package core

import (
	"errors"
	"fmt"

	"coresetclustering/internal/coreset"
	"coresetclustering/internal/gmm"
	"coresetclustering/internal/mapreduce"
	"coresetclustering/internal/metric"
)

// KCenterViaEngine runs the same 2-round k-center algorithm as KCenter but
// expressed literally on the key-value MapReduce engine, the way the paper's
// model describes it: round 1 maps every point to a partition key and reduces
// each partition to its coreset; round 2 maps every coreset point to a single
// key and one reducer runs GMM on the union.
//
// It exists to demonstrate (and test) that the algorithm is a genuine
// MapReduce computation — the goroutine-parallel KCenter driver is the
// faster path and the one used by the experiments.
func KCenterViaEngine(points metric.Dataset, cfg KCenterConfig) (*KCenterResult, error) {
	if err := cfg.normalize(len(points)); err != nil {
		return nil, err
	}

	// Round 1 input: (index, point) pairs; the mapper assigns partition keys.
	input := make([]mapreduce.Pair[int, metric.Point], len(points))
	for i, p := range points {
		input[i] = mapreduce.Pair[int, metric.Point]{Key: i, Value: p}
	}
	ell := cfg.Ell
	exec := mapreduce.ExecConfig{Parallelism: cfg.Parallelism, Workers: cfg.Workers}
	spec := coreset.Spec{
		Eps:        cfg.Eps,
		Size:       cfg.CoresetSize,
		RefCenters: cfg.K,
		MaxSize:    cfg.MaxCoresetSize,
		Workers:    exec.PerPartitionWorkers(ell),
		Space:      cfg.Space,
	}
	assignPartition := func(p mapreduce.Pair[int, metric.Point]) ([]mapreduce.Pair[int, metric.Point], error) {
		return []mapreduce.Pair[int, metric.Point]{{Key: p.Key % ell, Value: p.Value}}, nil
	}
	buildCoreset := func(part int, values []metric.Point) ([]mapreduce.Pair[int, metric.Point], error) {
		if len(values) == 0 {
			return nil, nil
		}
		c, err := coreset.Build(cfg.Distance, values, spec)
		if err != nil {
			return nil, err
		}
		out := make([]mapreduce.Pair[int, metric.Point], len(c.Points))
		for i, cp := range c.Points {
			out[i] = mapreduce.Pair[int, metric.Point]{Key: 0, Value: cp}
		}
		return out, nil
	}
	round1, stats1, err := mapreduce.Round(
		mapreduce.Config{Workers: cfg.Parallelism},
		input, assignPartition, buildCoreset,
	)
	if err != nil {
		return nil, fmt.Errorf("core: engine round 1: %w", err)
	}
	if len(round1) == 0 {
		return nil, errors.New("core: empty coreset union")
	}

	// Round 2: a single reducer (key 0) runs GMM on the union of coresets.
	identity := func(p mapreduce.Pair[int, metric.Point]) ([]mapreduce.Pair[int, metric.Point], error) {
		return []mapreduce.Pair[int, metric.Point]{p}, nil
	}
	finalGMM := func(_ int, values []metric.Point) ([]mapreduce.Pair[int, metric.Point], error) {
		res, err := gmm.Runner{Space: cfg.Space, Workers: cfg.Workers}.Run(values, cfg.K, 0)
		if err != nil {
			return nil, err
		}
		out := make([]mapreduce.Pair[int, metric.Point], len(res.Centers))
		for i, c := range res.Centers {
			out[i] = mapreduce.Pair[int, metric.Point]{Key: i, Value: c}
		}
		return out, nil
	}
	round2, stats2, err := mapreduce.Round(
		mapreduce.Config{Workers: cfg.Parallelism},
		round1, identity, finalGMM,
	)
	if err != nil {
		return nil, fmt.Errorf("core: engine round 2: %w", err)
	}

	centers := make(metric.Dataset, len(round2))
	for _, p := range round2 {
		centers[p.Key] = p.Value
	}
	_, assignment, radius := metric.NewEngine(cfg.Workers).NearestRadius(cfg.Space, points, centers, 0)
	return &KCenterResult{
		Centers:          centers,
		Radius:           radius,
		Assignment:       assignment,
		CoresetUnionSize: len(round1),
		LocalMemoryPeak:  maxInt(stats1.LocalMemory, stats2.LocalMemory),
	}, nil
}
