package main

import (
	"fmt"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/bench/gen"
	"coresetclustering/bench/trace"
	"coresetclustering/internal/metric"
)

// The two MapReduce workloads solve `reps` independent datasets of one seed
// and report medians over them: one dataset per solve keeps the figures
// steady across seeds (the outlier solver's radius search length depends on
// the data), and the per-dataset set-up gives setup_s its repetitions.
//
// Write/read mapping used for the latency metrics: "ack" is round 1 (the
// input is summarised into the coreset union), "query" is everything after it
// (round 2 on the union, final radius and assignment).
type mrParams struct {
	name     string
	n        int // inliers per dataset
	k, z     int
	reps     int // datasets solved at the reference run length
	ell, mu  int // ell 0 = library default sqrt(n/k)
	genBatch int
}

func init() {
	kc := mrParams{name: "mr_kcenter", n: 60_000, k: 100, reps: 40, mu: 8, genBatch: 1000}
	register(&workload{
		name:   kc.name,
		shape:  shape{k: kc.k, budget: kc.mu * kc.k, batch: 256, ell: 24, mu: kc.mu},
		stream: "rep0", genBatch: kc.genBatch, mr: &kc,
		run: func(e *env) (*result, error) { return runMR(e, kc) },
	})
	ko := mrParams{name: "mr_outliers", n: 50_000, k: 20, z: 32, reps: 40, ell: 4, mu: 2, genBatch: 1000}
	register(&workload{
		name:   ko.name,
		shape:  shape{k: ko.k, z: ko.z, budget: ko.mu * (ko.k + ko.z), batch: 256, ell: ko.ell, mu: ko.mu, kOut: ko.k, zOut: ko.z},
		stream: "rep0", genBatch: ko.genBatch, mr: &ko,
		run: func(e *env) (*result, error) { return runMR(e, ko) },
	})
}

// mrDataset generates dataset rep of an MR workload: all points, and the
// inliers the reference runs on (the same slice when z == 0).
func mrDataset(seed uint64, p mrParams, n, rep int) (points, inliers metric.Dataset) {
	src := gen.New(seed, p.name, fmt.Sprintf("rep%d", rep), p.genBatch, 0)
	coords := src.Batches(0, n/p.genBatch)
	inliers = dataset(coords)
	if p.z == 0 {
		return inliers, inliers
	}
	all, _ := src.WithOutliers(coords, p.z)
	return dataset(all), inliers
}

// size is the number of inliers per dataset: p.n, except that a run far
// below the reference length (--smoke) shrinks the datasets too.
func (p mrParams) size(e *env) int {
	if e.scale >= 0.5 {
		return p.n
	}
	return max(p.genBatch*20, int(float64(p.n)*e.scale*4)/p.genBatch*p.genBatch)
}

func runMR(e *env, p mrParams) (*result, error) {
	res := newResult()
	n := p.size(e)
	reps := e.scaled(p.reps, 3)
	opts := []kcenter.Option{kcenter.WithCoresetMultiplier(p.mu)}
	if p.ell > 0 {
		opts = append(opts, kcenter.WithPartitions(p.ell))
	}
	var setups, walls, acks, queries, ratios []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		points, inliers := mrDataset(e.seed, p, n, rep)
		ref, err := newReference(points, inliers, p.k, p.z)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())

		var (
			centers metric.Dataset
			radius  float64
			stats   kcenter.RunStats
		)
		res.attempted++
		t1 := time.Now()
		if p.z > 0 {
			var out *kcenter.OutliersClustering
			if out, err = kcenter.ClusterWithOutliers(points, p.k, p.z, opts...); err == nil {
				centers, radius, stats = out.Centers, out.Radius, out.Stats
			}
		} else {
			var out *kcenter.Clustering
			if out, err = kcenter.Cluster(points, p.k, opts...); err == nil {
				centers, radius, stats = out.Centers, out.Radius, out.Stats
			}
		}
		wall := time.Since(t1)
		if err != nil {
			res.failed++
			res.check(fmt.Sprintf("solve %d", rep), false, "%v", err)
			continue
		}
		walls = append(walls, wall.Seconds())
		acks = append(acks, stats.CoresetTime.Seconds()*1e3)
		queries = append(queries, (wall-stats.CoresetTime).Seconds()*1e3)

		got, ratio := ref.judge(res, fmt.Sprintf("solve %d", rep), centers)
		res.check(fmt.Sprintf("solve %d reported radius", rep), radius == got, "library says %.17g, recomputed %.17g", radius, got)
		ratios = append(ratios, ratio)
	}
	if len(walls) == 0 {
		return res, nil
	}
	res.set("setup_s", trace.Median(setups))
	res.samples["setup_s"] = len(setups)
	res.set("ingest_points_per_s", float64(n+p.z)/trace.Median(walls))
	res.samples["ingest_points_per_s"] = len(walls)
	res.setLatency("ack_ms", acks)
	res.setLatency("query_ms", queries)
	res.set("radius_ratio", trace.Median(ratios))
	res.notes = append(res.notes, fmt.Sprintf("%d datasets of %d points; ack = round 1, query = round 2 + radius + assignment; solve median %.4f s", reps, n+p.z, trace.Median(walls)))
	return res, nil
}
