package engine

import (
	"context"
	"errors"

	kcenter "coresetclustering"
	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/obs"
)

// Centers extracts the current k centers from the named stream's newest
// published view, never taking the stream's ingest mutex: the answer is a
// consistent snapshot as of the view's version, and a repeated query at an
// unchanged version is a cache hit (the view memoises its extraction). The
// stats returned describe the same view the centers came from.
func (e *Engine) Centers(ctx context.Context, name string) (StreamStats, kcenter.Dataset, error) {
	st, ok := e.Lookup(name)
	if !ok {
		return StreamStats{}, nil, errf(CodeUnknownStream, "unknown stream %q", name)
	}
	if err := st.gate(); err != nil {
		return StreamStats{}, nil, err
	}
	v := st.view.Load()
	_, extract := obs.StartSpan(ctx, "extract")
	centers, hit, err := v.Centers()
	if hit {
		extract.SetAttr("cache", "hit")
	} else {
		extract.SetAttr("cache", "miss")
	}
	extract.End()
	if hit {
		st.cacheHits.Add(1)
	} else {
		st.cacheMisses.Add(1)
	}
	if m := e.Metrics; m != nil {
		if hit {
			m.CacheHits.Add(1)
		} else {
			m.CacheMisses.Add(1)
		}
	}
	if err != nil {
		// A window stream whose every bucket has been evicted has nothing to
		// answer with; other extraction failures are equally state conflicts.
		return StreamStats{}, nil, wrapErr(CodeEmptyStream, err)
	}
	return e.StatsFromView(name, st, v), centers, nil
}

// Snapshot serializes the named stream's newest published view — wait-free
// like the other reads, and memoised, so back-to-back snapshots at an
// unchanged version serialize (and hash) once and answer byte-identically.
// tag is the sketch's strong validator (SketchTag).
func (e *Engine) Snapshot(ctx context.Context, name string) (snap []byte, tag string, err error) {
	st, ok := e.Lookup(name)
	if !ok {
		return nil, "", errf(CodeUnknownStream, "unknown stream %q", name)
	}
	if err := st.gate(); err != nil {
		return nil, "", err
	}
	_, serialize := obs.StartSpan(ctx, "snapshot")
	snap, tag, hit, err := st.view.Load().SnapshotTag()
	if hit {
		serialize.SetAttr("cache", "hit")
	} else {
		serialize.SetAttr("cache", "miss")
	}
	serialize.End()
	if err != nil {
		return nil, "", wrapErr(CodeInternal, err)
	}
	return snap, tag, nil
}

// Restore recreates the named stream from a serialized sketch, replacing any
// existing stream of that name. With a store, the restored state becomes the
// stream's snapshot and its journal starts fresh; the canonical re-snapshot
// (not the client's bytes) is persisted so later compactions are
// byte-identical to it.
func (e *Engine) Restore(name string, data []byte) (StreamStats, error) {
	core, err := clusterer.Restore(data, e.Cfg.Workers)
	if err != nil {
		return StreamStats{}, wrapErr(CodeBadSketch, err)
	}
	st := newStream(core)
	var snap []byte
	if e.Store != nil {
		if snap, err = core.Snapshot(); err != nil {
			return StreamStats{}, wrapErr(CodeInternal, err)
		}
	}
	e.mu.Lock()
	if old, ok := e.streams[name]; ok {
		// Mark the replaced stream dead under its own mutex so a caller that
		// already looked it up fails at its gate instead of acknowledging a
		// write into the orphan: taking old.Mu waits out any in-flight
		// append. (Lock order engine->stream is safe: no caller acquires the
		// engine lock while holding a stream lock.)
		old.Mu.Lock()
		old.gone.Store(true)
		if lg := old.log.Swap(nil); lg != nil {
			// The old journal dies with the old state; Replace below writes
			// the new directory contents.
			if err := lg.Remove(); err != nil {
				e.Logger.Error("restore: removing the old journal failed", "stream", name, "err", err)
			}
		}
		old.Mu.Unlock()
	}
	if e.Store != nil {
		lg, err := e.Store.Replace(name, streamMeta(st), snap)
		if err != nil {
			// Neither the old nor the new state is trustworthy now; drop the
			// name entirely rather than serving a stream that will not
			// survive a restart.
			delete(e.streams, name)
			e.mu.Unlock()
			return StreamStats{}, wrapErr(CodeInternal, err)
		}
		st.log.Store(lg)
	}
	st.publishLocked(e.Metrics)
	e.streams[name] = st
	e.mu.Unlock()
	e.ClearFailed(name)
	return e.StatsFromView(name, st, st.view.Load()), nil
}

// MergeResult is the outcome of merging shard sketches: the merged sketch
// bytes, the total points it accounts for, and (when non-empty) the global
// centers extracted from it.
type MergeResult struct {
	Sketch   []byte
	Observed int64
	Centers  kcenter.Dataset
}

// Merge unions independently built shard sketches into one global sketch and
// extracts its centers — the paper's round-2 composition as an engine
// operation. Incompatible sketches (window sketches, mismatched parameters)
// surface kcenter.ErrMergeIncompatible wrapped as a shard_incompatible
// error; malformed bytes are bad_sketch.
func (e *Engine) Merge(blobs [][]byte) (MergeResult, error) {
	if len(blobs) == 0 {
		return MergeResult{}, errf(CodeEmptyBatch, "no sketches to merge")
	}
	merged, err := kcenter.MergeSketches(blobs...)
	if err != nil {
		if errors.Is(err, kcenter.ErrMergeIncompatible) {
			return MergeResult{}, wrapErr(CodeShardIncompatible, err)
		}
		return MergeResult{}, wrapErr(CodeBadSketch, err)
	}
	core, err := clusterer.Restore(merged, e.Cfg.Workers)
	if err != nil {
		return MergeResult{}, wrapErr(CodeInternal, err)
	}
	res := MergeResult{Sketch: merged, Observed: core.Processed()}
	if res.Observed > 0 {
		centers, err := core.Centers()
		if err != nil {
			return MergeResult{}, wrapErr(CodeInternal, err)
		}
		res.Centers = centers
	}
	return res, nil
}
