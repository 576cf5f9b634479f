package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/bench/gen"
	"coresetclustering/bench/trace"
	"coresetclustering/internal/coreset"
	"coresetclustering/internal/gmm"
	"coresetclustering/internal/mapreduce"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/outliers"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/server/engine"
	"coresetclustering/internal/server/httpapi"
)

// The layer replay: the traced pass calls each layer's public functions
// directly, one layer at a time, on a prefix of the workload's own inputs and
// at the workload's sizes. Every call sits in a harness span named
// "layer.operation"; nothing is added inside the program.

// profiler carries the state the replay sections share.
type profiler struct {
	e   *env
	res *result
	sh  shape
	rec *trace.Recorder

	root    int              // root span of the replay
	batches []metric.Dataset // the stream prefix, cut into shape.batch-point writes
	coords  []float64        // the same points, flat
	replay  []metric.Dataset // the leading writes the in-process sections consume

	observeUS float64 // median time to observe one write, for engine.self_us
	cloneUS   float64 // streaming.clone_us
	snapshot  []byte  // library snapshot after the whole prefix
}

// us returns a duration in microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// everyNth is how often the replay samples the per-state operations (clone,
// extraction) while it feeds a stream batch by batch.
const everyNth = 8

// pipeline replays the two-round MapReduce algorithm through core's own
// building blocks (partitioner, coreset.Build per partition under
// mapreduce.MapPartitions, second-round solver, final radius and assignment)
// next to one real library solve of the same input, which is the end-to-end
// figure the budget is a share of.
func (p *profiler) pipeline(points, inliers metric.Dataset) (budget, error) {
	sh, rec := p.sh, p.rec
	k, z := sh.k, sh.z
	space := metric.EuclideanSpace
	opts := []kcenter.Option{kcenter.WithCoresetMultiplier(sh.mu), kcenter.WithPartitions(sh.ell)}

	// The real solve, traced only from outside.
	var stats kcenter.RunStats
	solveID := rec.Start(0, "e2e.solve")
	if z > 0 {
		out, err := kcenter.ClusterWithOutliers(points, k, z, opts...)
		if err != nil {
			return budget{}, err
		}
		stats = out.Stats
	} else {
		out, err := kcenter.Cluster(points, k, opts...)
		if err != nil {
			return budget{}, err
		}
		stats = out.Stats
	}
	solve := rec.End(solveID)

	// The same solve on a counting space gives the exact evaluation count.
	counting := metric.NewCountingSpace(space)
	copts := append([]kcenter.Option{kcenter.WithSpace(counting)}, opts...)
	if z > 0 {
		if _, err := kcenter.ClusterWithOutliers(points, k, z, copts...); err != nil {
			return budget{}, err
		}
	} else if _, err := kcenter.Cluster(points, k, copts...); err != nil {
		return budget{}, err
	}
	p.res.set("metric.evals", float64(counting.Evaluations()))

	// The replay.
	ref := k + z
	spec := coreset.Spec{Size: sh.mu * ref, RefCenters: ref, Space: space}
	exec := mapreduce.ExecConfig{}
	pipeID := rec.Start(p.root, "core.pipeline")
	var parts []metric.Dataset
	rec.Time(pipeID, "core.partition", func(int) {
		parts, _ = mapreduce.UniformPartitioner{}.Partition(points, sh.ell)
	})
	spec.Workers = exec.PerPartitionWorkers(len(parts))
	var coresets []*coreset.Coreset
	var buildErr error
	var buildNS atomic.Int64 // partitions are built on parallel goroutines
	rec.Time(pipeID, "core.round1", func(id int) {
		coresets, _, buildErr = mapreduce.MapPartitions(exec, parts, func(i int, part metric.Dataset) (*coreset.Coreset, error) {
			var cs *coreset.Coreset
			var err error
			d := rec.Time(id, "coreset.build", func(int) { cs, err = coreset.Build(space.Dist(), part, spec) })
			buildNS.Add(d.Nanoseconds())
			return cs, err
		})
	})
	if buildErr != nil {
		return budget{}, buildErr
	}
	var centers metric.Dataset
	var solveErr error
	var unionSize int
	rec.Time(pipeID, "core.round2", func(id int) {
		if z > 0 {
			union := coreset.Union(coresets...)
			unionSize = len(union)
			rec.Time(id, "outliers.solve", func(int) {
				var sr *outliers.SolveResult
				if sr, solveErr = outliers.SolveIn(space, union, k, int64(z), 0.25, outliers.SearchBinaryGeometric, 0); solveErr == nil {
					centers = sr.Centers
				}
			})
		} else {
			union := coreset.UnionPoints(coresets...)
			unionSize = len(union)
			rec.Time(id, "gmm.run", func(int) {
				var gr *gmm.Result
				if gr, solveErr = (gmm.Runner{Space: space}).Run(union, k, 0); solveErr == nil {
					centers = gr.Centers
				}
			})
		}
	})
	if solveErr != nil {
		return budget{}, solveErr
	}
	eng := metric.NewEngine(0)
	rec.Time(pipeID, "metric.radius", func(int) {
		if z > 0 {
			eng.RadiusExcluding(space, points, centers, z)
		} else {
			eng.Radius(space, points, centers)
		}
	})
	rec.Time(pipeID, "metric.assign", func(int) { eng.NearestBatch(space, points, centers) })
	rec.End(pipeID)

	// gmm alone on every partition, sequentially with the engine at full
	// width: what coreset.Build spends inside the greedy.
	var gmmTotal time.Duration
	for _, part := range parts {
		gmmTotal += rec.Time(p.root, "gmm.run", func(int) {
			(gmm.Runner{Space: space}).RunToSize(part, spec.Size, ref, 0)
		})
	}

	p.res.set("core.round1_s", stats.CoresetTime.Seconds())
	p.res.set("core.round2_s", stats.FinalTime.Seconds())
	p.res.set("core.self_s", (solve - stats.CoresetTime - stats.FinalTime).Seconds())
	p.res.set("core.local_memory_points", float64(stats.LocalMemoryPeak))
	p.res.set("coreset.build_s", time.Duration(buildNS.Load()).Seconds())
	p.res.set("coreset.union_points", float64(unionSize))
	p.res.set("gmm.run_s", gmmTotal.Seconds())

	// The outlier solver on a weighted union small enough to finish in about
	// a second whatever the workload (its cost grows roughly with the cube of
	// the union): the workload's own union when it has outliers.
	if z > 0 {
		p.outlierSolve(coreset.Union(coresets...), k, z)
	} else {
		small := coreset.Spec{Size: 2 * (sh.kOut + sh.zOut), RefCenters: sh.kOut + sh.zOut, Space: space}
		oparts, _ := mapreduce.UniformPartitioner{}.Partition(inliers[:min(len(inliers), 100_000)], 8)
		var sets []*coreset.Coreset
		for _, part := range oparts {
			cs, err := coreset.Build(space.Dist(), part, small)
			if err != nil {
				return budget{}, err
			}
			sets = append(sets, cs)
		}
		p.outlierSolve(coreset.Union(sets...), sh.kOut, sh.zOut)
	}

	return pipelineBudget(rec, pipeID, solve), nil
}

func (p *profiler) outlierSolve(union metric.WeightedSet, k, z int) {
	var sr *outliers.SolveResult
	d := p.rec.Time(p.root, "outliers.solve", func(int) {
		sr, _ = outliers.SolveIn(metric.EuclideanSpace, union, k, int64(z), 0.25, outliers.SearchBinaryGeometric, 0)
	})
	p.res.set("outliers.solve_s", d.Seconds())
	evals := 0
	if sr != nil {
		evals = sr.Evaluations
	}
	p.res.set("outliers.evaluations", float64(evals))
}

// kernels times the two block kernels at the shapes the workload gives them:
// ArgNearest of single points against a budget-sized centre set (the
// streaming update), UpdateNearest of one new centre over a partition-sized
// block (one Gonzalez step).
func (p *profiler) kernels(points metric.Dataset) {
	space := metric.EuclideanSpace
	centres := points[:min(p.sh.budget, len(points)/2)]
	queries := points[len(centres):min(len(points), len(centres)+20_000)]
	d := p.rec.Time(p.root, "metric.argnearest", func(int) {
		for _, q := range queries {
			space.ArgNearest(q, centres)
		}
	})
	p.res.set("metric.argnearest_ns_per_eval", float64(d.Nanoseconds())/float64(len(queries)*len(centres)))

	block := points[:min(len(points), max(len(points)/p.sh.ell, 1000))]
	minDist := make([]float64, len(block))
	minIdx := make([]int, len(block))
	for i := range minDist {
		minDist[i] = space.ToSurrogate(1e300)
	}
	const steps = 64
	d = p.rec.Time(p.root, "metric.updatenearest", func(int) {
		for c := 0; c < steps; c++ {
			space.UpdateNearest(minDist, minIdx, block[c*len(block)/steps], c, block)
		}
	})
	p.res.set("metric.updatenearest_ns_per_eval", float64(d.Nanoseconds())/float64(steps*len(block)))
}

// streaming feeds the prefix to the plain and the outlier streams.
func (p *profiler) streaming() error {
	sh, rec := p.sh, p.rec
	s, err := kcenter.NewStreamingKCenter(sh.k, sh.budget)
	if err != nil {
		return err
	}
	var observe time.Duration
	var observeUS, cloneUS, centersUS []float64
	points := 0
	for i, b := range p.replay {
		d := rec.Time(p.root, "streaming.observe", func(int) { err = s.ObserveAll(b) })
		if err != nil {
			return err
		}
		observe += d
		observeUS = append(observeUS, us(d))
		points += len(b)
		if i%everyNth == everyNth-1 {
			cloneUS = append(cloneUS, us(rec.Time(p.root, "streaming.clone", func(int) { s.Clone() })))
			centersUS = append(centersUS, us(rec.Time(p.root, "streaming.centers", func(int) { _, err = s.Centers() })))
			if err != nil {
				return err
			}
		}
	}
	p.observeUS = trace.Median(observeUS)
	p.cloneUS = trace.Median(cloneUS)
	p.res.set("streaming.observe_ns_per_point", float64(observe.Nanoseconds())/float64(points))
	p.res.set("streaming.clone_us", p.cloneUS)
	p.res.set("streaming.centers_us", trace.Median(centersUS))
	p.res.set("streaming.working_memory_points", float64(s.WorkingMemory()))
	p.res.notes = append(p.res.notes, fmt.Sprintf("coreset fill after %d points: %d of budget %d (%.0f %%)",
		points, s.WorkingMemory(), sh.budget, 100*float64(s.WorkingMemory())/float64(sh.budget)))
	if p.snapshot, err = s.Snapshot(); err != nil {
		return err
	}

	// Outlier extraction is cubic in the coreset, so its budget is capped.
	so, err := kcenter.NewStreamingOutliers(sh.kOut, sh.zOut, min(sh.budget, 320))
	if err != nil {
		return err
	}
	var outMS []float64
	step := max(len(p.replay)/3, 1)
	for i, b := range p.replay {
		if err := so.ObserveAll(b); err != nil {
			return err
		}
		if i%step == step-1 {
			outMS = append(outMS, us(rec.Time(p.root, "streaming.outliers_centers", func(int) { _, err = so.Centers() }))/1e3)
			if err != nil {
				return err
			}
		}
	}
	p.res.set("streaming.outliers_centers_ms", trace.Median(outMS))
	return nil
}

// window feeds the prefix to a count-windowed stream half the prefix long.
func (p *profiler) window() error {
	sh, rec := p.sh, p.rec
	total := len(p.replay) * sh.batch
	w, err := kcenter.NewWindowedKCenter(sh.k, min(sh.budget, 320), kcenter.WithWindowSize(min(libWindow, total/2)))
	if err != nil {
		return err
	}
	var observe time.Duration
	var cloneUS, centersMS []float64
	ts := int64(0)
	for i, b := range p.replay {
		observe += rec.Time(p.root, "window.observe", func(int) {
			for _, pt := range b {
				if err == nil {
					err = w.ObserveAt(pt, ts)
				}
				ts++
			}
		})
		if err != nil {
			return err
		}
		if i%everyNth == everyNth-1 {
			cloneUS = append(cloneUS, us(rec.Time(p.root, "window.clone", func(int) { w.Clone() })))
			centersMS = append(centersMS, us(rec.Time(p.root, "window.centers", func(int) { _, err = w.Centers() }))/1e3)
			if err != nil {
				return err
			}
		}
	}
	p.res.set("window.observe_ns_per_point", float64(observe.Nanoseconds())/float64(total))
	p.res.set("window.clone_us", trace.Median(cloneUS))
	p.res.set("window.centers_ms", trace.Median(centersMS))
	p.res.set("window.live_buckets", float64(w.LiveBuckets()))
	return nil
}

// sketch times the codec on the prefix's final state, and a merge of two
// sketches that each saw half of it (what a router does per refresh).
func (p *profiler) sketch() error {
	sh, rec := p.sh, p.rec
	s, err := kcenter.RestoreStreamingKCenter(p.snapshot)
	if err != nil {
		return err
	}
	halves := make([][]byte, 2)
	for h := range halves {
		hs, err := kcenter.NewStreamingKCenter(sh.k, sh.budget)
		if err != nil {
			return err
		}
		for i := h; i < len(p.replay); i += 2 {
			if err := hs.ObserveAll(p.replay[i]); err != nil {
				return err
			}
		}
		if halves[h], err = hs.Snapshot(); err != nil {
			return err
		}
	}
	var snapUS, restoreUS, mergeUS []float64
	for i := 0; i < 9; i++ {
		snapUS = append(snapUS, us(rec.Time(p.root, "sketch.snapshot", func(int) { _, err = s.Snapshot() })))
		restoreUS = append(restoreUS, us(rec.Time(p.root, "sketch.restore", func(int) { _, err = kcenter.RestoreStreamingKCenter(p.snapshot) })))
		mergeUS = append(mergeUS, us(rec.Time(p.root, "sketch.merge", func(int) { _, err = kcenter.MergeSketches(halves...) })))
		if err != nil {
			return err
		}
	}
	p.res.set("sketch.snapshot_us", trace.Median(snapUS))
	p.res.set("sketch.restore_us", trace.Median(restoreUS))
	p.res.set("sketch.merge_us", trace.Median(mergeUS))
	p.res.set("sketch.bytes", float64(len(p.snapshot)))
	return nil
}

// persistLayer journals the prefix (at most 2 048 batches) the way the engine
// does — BeginBatch, then wait for the covering fsync — and then times
// recovery of that log and a compaction.
func (p *profiler) persistLayer(scratch string) error {
	sh, rec := p.sh, p.rec
	dir := filepath.Join(scratch, "persist-replay")
	opts := persist.Options{Fsync: persist.FsyncAlways, GroupCommit: true, CompactEvery: -1}
	store, err := persist.Open(dir, opts)
	if err != nil {
		return err
	}
	lg, err := store.Create("replay", persist.Meta{K: sh.k, Budget: sh.budget, Space: "euclidean"})
	if err != nil {
		store.Close()
		return err
	}
	batches := p.replay[:min(len(p.replay), 2048)]
	var appendUS, waitUS []float64
	points := 0
	for _, b := range batches {
		var pn *persist.Pending
		appendUS = append(appendUS, us(rec.Time(p.root, "persist.append", func(int) { pn, err = lg.BeginBatch(b, nil) })))
		if err != nil {
			store.Close()
			return err
		}
		waitUS = append(waitUS, us(rec.Time(p.root, "persist.wait", func(int) { err = pn.Wait() })))
		if err != nil {
			store.Close()
			return err
		}
		points += len(b)
	}
	walBytes := lg.Stats().WALBytes
	if err := store.Close(); err != nil {
		return err
	}

	store, err = persist.Open(dir, opts)
	if err != nil {
		return err
	}
	defer store.Close()
	var recovered []*persist.Recovered
	d := rec.Time(p.root, "persist.recover", func(int) { recovered, err = store.Recover() })
	if err != nil {
		return err
	}
	if len(recovered) != 1 || recovered[0].Err != nil || len(recovered[0].Tail) != len(batches) {
		return fmt.Errorf("persist replay: recovery did not return the %d journaled batches", len(batches))
	}
	p.res.set("persist.recover_ms", us(d)/1e3)
	d = rec.Time(p.root, "persist.compact", func(int) { err = recovered[0].Log.Compact(p.snapshot) })
	if err != nil {
		return err
	}
	p.res.set("persist.compact_ms", us(d)/1e3)
	p.res.set("persist.append_us", trace.Median(appendUS))
	p.res.set("persist.wait_us", trace.Median(waitUS))
	p.res.set("persist.wal_bytes_per_point", float64(walBytes)/float64(points))
	return os.RemoveAll(dir)
}

// engineLayer drives Engine.Ingest and Engine.Centers with no store, metrics
// or tracer attached. It returns the median ingest time in microseconds.
func (p *profiler) engineLayer() (float64, error) {
	rec := p.rec
	sh := p.sh
	eng := engine.New(engine.Config{K: sh.k, Budget: sh.budget})
	params := engine.CreateParams{K: sh.k, Budget: sh.budget}
	ctx := context.Background()
	var ingestUS, missUS, hitUS []float64
	var err error
	for i, b := range p.replay {
		ingestUS = append(ingestUS, us(rec.Time(p.root, "engine.ingest", func(int) { _, err = eng.Ingest(ctx, "replay", b, nil, -1, params) })))
		if err != nil {
			return 0, err
		}
		if i%everyNth == everyNth-1 {
			missUS = append(missUS, us(rec.Time(p.root, "engine.centers_miss", func(int) { _, _, err = eng.Centers(ctx, "replay") })))
			hitUS = append(hitUS, us(rec.Time(p.root, "engine.centers_hit", func(int) { _, _, err = eng.Centers(ctx, "replay") })))
			if err != nil {
				return 0, err
			}
		}
	}
	ingest := trace.Median(ingestUS)
	p.res.set("engine.ingest_us", ingest)
	p.res.set("engine.self_us", ingest-p.observeUS-p.cloneUS)
	p.res.set("engine.centers_miss_us", trace.Median(missUS))
	p.res.set("engine.centers_hit_us", trace.Median(hitUS))
	return ingest, nil
}

// decodeLayer times the binary wire decoder on every write of the prefix.
func (p *profiler) decodeLayer() error {
	per := p.sh.batch * gen.Dim
	var total time.Duration
	var body []byte
	var err error
	for i := range p.replay {
		body = gen.AppendKCFL(body[:0], p.coords[i*per:(i+1)*per])
		total += p.rec.Time(p.root, "httpapi.decode_binary", func(int) { _, _, _, err = httpapi.DecodeBinaryIngest(body) })
		if err != nil {
			return err
		}
	}
	p.res.set("httpapi.decode_binary_ns_per_point", float64(total.Nanoseconds())/float64(len(p.replay)*p.sh.batch))
	return nil
}
