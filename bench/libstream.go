package main

import (
	"fmt"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/bench/gen"
	"coresetclustering/bench/trace"
	"coresetclustering/internal/metric"
)

// lib_streaming drives two library streams over one drifting point sequence,
// batch by batch: job A is the paper's one-pass algorithm with outliers, job B
// the sliding-window extension. A write ("ack") is one batch observed by both
// jobs. Query work falls due at batch boundaries: B.Centers() every
// libQueryEveryB batches and A.Centers() every libQueryEveryA batches, the
// cadences that make extraction 30-50 % of each job's time. A query sample is
// all extraction work done at one boundary, so the median is a window
// extraction and the tail is a window plus an outlier extraction.
const (
	libBatches     = 2816 // at the reference run length
	libBatch       = 256
	libK           = 20
	libZ           = 16
	libBudgetA     = 288
	libBudgetB     = 320
	libWindow      = 100_000
	libQueryEveryB = 2
	libQueryEveryA = 128
)

func init() {
	register(&workload{
		name:   "lib_streaming",
		shape:  shape{k: libK, z: libZ, budget: libBudgetA, batch: libBatch, drift: driftSmallBudget, ell: 4, mu: 2},
		stream: "points",
		run:    runLibStreaming,
	})
}

func runLibStreaming(e *env) (*result, error) {
	res := newResult()
	batches := e.scaled(libBatches, 4*libQueryEveryA) / libQueryEveryA * libQueryEveryA
	window := libWindow
	if batches*libBatch < 2*window {
		window = batches * libBatch / 2
	}

	// Set-up is input generation plus job A's reference solution; it is
	// cheap, so it runs three times and setup_s is the median. Job B's
	// reference needs the window's final live range (eviction is by whole
	// buckets), so it is computed after the run; it costs a few tens of ms.
	var (
		points metric.Dataset
		setups []float64
		refA   *reference
		err    error
	)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		src := gen.New(e.seed, "lib_streaming", "points", libBatch, driftSmallBudget)
		points = dataset(src.Batches(0, batches))
		if refA, err = newReference(points, points, libK, libZ); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	a, err := kcenter.NewStreamingOutliers(libK, libZ, libBudgetA)
	if err != nil {
		return nil, err
	}
	b, err := kcenter.NewWindowedKCenter(libK, libBudgetB, kcenter.WithWindowSize(window))
	if err != nil {
		return nil, err
	}
	var (
		acks, queries      []float64
		done               []time.Duration
		centersA, centersB metric.Dataset
		fill               float64
	)
	start := time.Now()
	for i := 0; i < batches; i++ {
		batch := points[i*libBatch : (i+1)*libBatch]
		res.attempted++
		t0 := time.Now()
		for j, p := range batch {
			if err == nil {
				err = a.Observe(p)
			}
			if err == nil {
				err = b.ObserveAt(p, int64(i*libBatch+j))
			}
		}
		if err != nil {
			return nil, fmt.Errorf("observe batch %d: %w", i, err)
		}
		acks = append(acks, time.Since(t0).Seconds()*1e3)
		fill += float64(a.WorkingMemory()) / libBudgetA

		if (i+1)%libQueryEveryB != 0 {
			done = append(done, time.Since(start))
			continue
		}
		res.attempted++
		t0 = time.Now()
		if centersB, err = b.Centers(); err != nil {
			return nil, fmt.Errorf("window centers after batch %d: %w", i, err)
		}
		if (i+1)%libQueryEveryA == 0 {
			if centersA, err = a.Centers(); err != nil {
				return nil, fmt.Errorf("outlier centers after batch %d: %w", i, err)
			}
		}
		queries = append(queries, time.Since(t0).Seconds()*1e3)
		done = append(done, time.Since(start))
	}
	wall := time.Since(start).Seconds()

	_, ratioA := refA.judge(res, "job A (outliers)", centersA)
	res.check("job A observed", a.Observed() == int64(len(points)), "%d of %d", a.Observed(), len(points))
	lo, hi := b.LiveRange()
	res.check("job B live range", hi == int64(len(points)) && hi-lo >= int64(window) && hi-lo < 2*int64(window),
		"[%d,%d) of %d points, window %d", lo, hi, len(points), window)
	live := points[lo:hi]
	refB, err := newReference(live, live, libK, 0)
	if err != nil {
		return nil, err
	}
	_, ratioB := refB.judge(res, "job B (window)", centersB)

	res.set("setup_s", trace.Median(setups))
	res.samples["setup_s"] = len(setups)
	res.setRate(done, libBatch)
	res.setLatency("ack_ms", acks)
	res.setLatency("query_ms", queries)
	res.set("radius_ratio", (ratioA+ratioB)/2)
	res.notes = append(res.notes, fmt.Sprintf("%d batches of %d in %.3f s; job A coreset fill averaged %.0f %% of its budget; ratios A %.4f, B %.4f",
		batches, libBatch, wall, 100*fill/float64(batches), ratioA, ratioB))
	return res, nil
}
