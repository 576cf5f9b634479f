package engine

import (
	"context"
	"fmt"
	"strconv"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/obs"
	"coresetclustering/internal/persist"
)

// AdoptRecovered installs the streams the durability layer recovered at
// boot: restore the snapshot (or rebuild an empty core from the journaled
// metadata), verify the snapshot against the metadata, replay the log tail,
// and surface the recovery stats. Streams that fail above the persistence
// layer are set aside (directory renamed *.failed) so the name stays usable.
// Boot recovery records a background trace with one child span per stream,
// always retained, so a slow boot is attributable after the fact.
func (e *Engine) AdoptRecovered(recovered []*persist.Recovered) {
	if len(recovered) == 0 {
		return
	}
	ctx, root := e.Tracer.StartBackground(context.Background(), "recovery")
	root.SetAttr("streams", strconv.Itoa(len(recovered)))
	defer root.End()
	for _, rec := range recovered {
		_, sp := obs.StartSpan(ctx, "recover.stream")
		sp.SetAttr("stream", rec.Name)
		if rec.Err != nil {
			sp.SetAttr("status", "failed")
			sp.End()
			e.Logger.Error("recovery failed, stream set aside", "stream", rec.Name, "err", rec.Err)
			e.MarkFailed(rec.Name, rec.Err.Error())
			continue
		}
		st, err := e.rebuildStream(rec)
		if err != nil {
			sp.SetAttr("status", "failed")
			sp.End()
			e.Logger.Error("recovery failed, stream set aside", "stream", rec.Name, "err", err)
			if saErr := rec.Log.SetAside(); saErr != nil {
				e.Logger.Error("setting stream aside failed", "stream", rec.Name, "err", saErr)
			}
			e.MarkFailed(rec.Name, err.Error())
			continue
		}
		e.mu.Lock()
		e.streams[rec.Name] = st
		e.mu.Unlock()
		sp.SetAttr("status", "ok")
		sp.End()
		e.Logger.Info("recovered stream", "stream", rec.Name,
			"snapshot", rec.Stats.SnapshotLoaded, "records", rec.Stats.RecordsReplayed,
			"points", rec.Stats.PointsReplayed, "tornTail", rec.Stats.TornTail)
	}
}

// rebuildStream revives one recovered stream: snapshot first, then the
// journal tail on top, exactly the order the records were acknowledged in.
func (e *Engine) rebuildStream(rec *persist.Recovered) (*Stream, error) {
	var st *Stream
	if rec.Snapshot != nil {
		core, err := clusterer.Restore(rec.Snapshot, e.Cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		st = newStream(core)
		// The snapshot must describe the stream the journal was written for:
		// a swapped or stale file silently changing k, the metric space or
		// the window geometry would corrupt every later answer.
		meta := streamMeta(st)
		if rec.HaveMeta && meta != rec.Meta {
			return nil, fmt.Errorf("snapshot metadata %+v does not match journaled metadata %+v", meta, rec.Meta)
		}
		if !rec.HaveMeta {
			// A WAL that cannot be rebuilt costs the stream its appends, not
			// its state: the log stays poisoned, reads answer from the
			// snapshot and the tail, and the next boot rebuilds the WAL.
			if err := rec.Log.AdoptMeta(meta); err != nil {
				e.Logger.Error("journal not rebuilt, appends refused until the next boot", "stream", rec.Name, "err", err)
			}
		}
	} else {
		m := rec.Meta
		core, err := e.newCore(m.Space, m.K, m.Z, m.Budget, m.WindowSize, m.WindowDuration)
		if err != nil {
			return nil, err
		}
		st = newStream(core)
	}
	// The tail replays through the live apply step, which fails a record live
	// admission would have refused (e.g. a point beyond the bound).
	for i, r := range rec.Tail {
		if err := applyRecord(st.core, r); err != nil {
			return nil, fmt.Errorf("record %d: replay: %w", i, err)
		}
	}
	stats := rec.Stats
	st.recovery = &stats
	st.log.Store(rec.Log)
	st.publishLocked(e.Metrics)
	return st, nil
}
