package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/obs"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/streaming"
)

// ValidateBatch is the typed admission rule for a batch before any stream is
// touched: a bad batch creates nothing and, behind a router, fans out nowhere.
func ValidateBatch(points metric.Dataset, timestamps []int64) error {
	return admissionError(streaming.CheckBatch(points, timestamps, 0, 0))
}

// admissionError maps the admission sentinels to wire codes, once for every
// caller; any other refusal is an inadmissible point.
func admissionError(err error) error {
	code := CodeInvalidPoint
	switch {
	case err == nil:
		return nil
	case errors.Is(err, streaming.ErrEmptyBatch):
		code = CodeEmptyBatch
	case errors.Is(err, metric.ErrDimensionMismatch):
		code = CodeDimensionMismatch
	case errors.Is(err, clusterer.ErrNotWindowed):
		code = CodeNotWindowed
	case errors.Is(err, streaming.ErrTimestampCount), errors.Is(err, streaming.ErrNegativeTimestamp),
		errors.Is(err, streaming.ErrTimestampOrder):
		code = CodeInvalidTimestamps
	}
	return wrapErr(code, err)
}

// ApplyPointHook is a test seam called before each point of a batch is
// applied, live or replayed: a non-nil error simulates a mid-batch apply
// failure, otherwise unreachable because batches are admitted in full up
// front. The default costs one predictable branch.
var ApplyPointHook = func(i int) error { return nil }

// CompactStartHook is a test seam called at the start of a background
// compaction, before the view is serialized; tests block here to prove
// ingest proceeds while a compaction is in flight.
var CompactStartHook = func() {}

// Ingest admits one stream-owned batch into the named stream (creating it on
// first touch with p), journals it when the engine is durable, and applies it
// (see mutate). binaryBytes is the request-body size of a binary-protocol
// batch (for the protocol counters), or negative for JSON.
func (e *Engine) Ingest(ctx context.Context, name string, batch metric.Dataset, timestamps []int64, binaryBytes int, p CreateParams) (StreamStats, error) {
	// Timestamps need a window. Aimed at a free name by a request that asks
	// for none, they are refused BEFORE getOrCreate runs: otherwise the
	// rejection would create a plain stream as a side effect, locking the name
	// to the wrong flavour. (== 0, not <= 0: negative bounds fall through to
	// getOrCreate's invalid_param. A hosted stream's flavour is admission's.)
	if timestamps != nil && p.WinErr == nil && p.WinSize == 0 && p.WinDur == 0 {
		if _, ok := e.Lookup(name); !ok {
			return StreamStats{}, errf(CodeNotWindowed,
				"timestamped batches need a window stream: create it with ?window= or ?windowDur=")
		}
	}
	st, err := e.getOrCreate(name, p)
	if err != nil {
		return StreamStats{}, err
	}
	stats, err := e.mutate(ctx, name, st, persist.Record{Op: persist.OpBatch, Points: batch, Timestamps: timestamps})
	if err != nil {
		return StreamStats{}, err
	}
	if m := e.Metrics; m != nil {
		m.IngestBatches.Add(1)
		m.IngestPoints.Add(int64(len(batch)))
		if binaryBytes >= 0 {
			m.IngestBinaryBytes.Add(int64(binaryBytes))
			m.IngestBinaryPoints.Add(int64(len(batch)))
		}
	}
	return stats, nil
}

// Advance moves a window stream's clock forward without observing a point,
// evicting buckets that age out of a duration window.
func (e *Engine) Advance(ctx context.Context, name string, to int64) (StreamStats, error) {
	st, ok := e.Lookup(name)
	if !ok {
		return StreamStats{}, errf(CodeUnknownStream, "unknown stream %q", name)
	}
	return e.mutate(ctx, name, st, persist.Record{Op: persist.OpAdvance, AdvanceTo: to})
}

// mutate is the one mutation path of a stream, for a batch or an advance
// given as the record the journal will hold: under the stream mutex it gates,
// admits, journals, applies, then publishes (or sets the stream aside if the
// apply diverged from the journal) and compacts; it awaits the covering
// fsync after unlocking. Every rejection happens before the journal:
// Clusterer.Admit decides against the stream's own dimension, flavour and
// clock, so no record that would fail its apply or replay is ever written.
//
// Journal order equals apply order (the frame is written under the mutex),
// but under group commit the fsync is awaited outside it, so the next
// mutations of this and other streams join the same disk flush — the
// -fsync=always throughput multiple. A Wait failure means the fsync failed
// after the frame was written: the log is poisoned and the outcome
// indeterminate, so the client gets an internal error, never an ack; the
// applied-but-unacked view is the transient recovery would produce.
func (e *Engine) mutate(ctx context.Context, name string, st *Stream, rec persist.Record) (StreamStats, error) {
	st.Mu.Lock()
	if err := st.gate(); err != nil {
		st.Mu.Unlock()
		return StreamStats{}, err
	}
	batch := rec.Op == persist.OpBatch
	var err error
	if batch {
		err = st.core.Admit(rec.Points, rec.Timestamps)
	} else {
		err = st.core.AdmitAdvance(rec.AdvanceTo)
	}
	if err != nil {
		st.Mu.Unlock()
		return StreamStats{}, admissionError(err)
	}
	var pending *persist.Pending
	if lg := st.log.Load(); lg != nil {
		_, journal := obs.StartSpan(ctx, "journal")
		if batch {
			pending, err = lg.BeginBatch(rec.Points, rec.Timestamps)
		} else {
			pending, err = lg.BeginAdvance(rec.AdvanceTo)
		}
		journal.End()
		if err != nil {
			st.Mu.Unlock()
			return StreamStats{}, wrapErr(CodeInternal, err)
		}
	}
	_, apply := obs.StartSpan(ctx, "apply")
	apply.SetAttr("points", strconv.Itoa(len(rec.Points)))
	err = applyRecord(st.core, rec)
	apply.End()
	if err != nil {
		// The journal holds a record the in-memory state no longer reflects
		// (a batch only partially applied). Set the stream aside like an
		// unrecoverable boot and free the name, rather than serve state
		// every later answer and replay would contradict.
		st.failed.Store(true)
		st.gone.Store(true)
		st.Mu.Unlock()
		e.failStream(name, st, err)
		return StreamStats{}, wrapErr(CodeStreamFailed,
			fmt.Errorf("%s failed to apply after it was journaled; %w: %v", rec.Op, ErrFailed, err))
	}
	st.version++
	_, publish := obs.StartSpan(ctx, "publish")
	st.publishLocked(e.Metrics)
	publish.End()
	e.maybeCompactLocked(name, st)
	stats := e.StatsFromView(name, st, st.view.Load())
	st.Mu.Unlock()
	// WaitCtx records the wait as this request's wal.wait span.
	if pending != nil {
		if err := pending.WaitCtx(ctx); err != nil {
			return StreamStats{}, wrapErr(CodeInternal, err)
		}
	}
	return stats, nil
}

// applyRecord is the apply step of every mutation, live (mutate) or replayed
// at boot (rebuildStream): it feeds one batch or advance record to the
// clusterer, calling ApplyPointHook before each point.
func applyRecord(core *clusterer.Clusterer, rec persist.Record) error {
	switch rec.Op {
	case persist.OpBatch:
		for i, p := range rec.Points {
			if err := ApplyPointHook(i); err != nil {
				return err
			}
			var err error
			if rec.Timestamps != nil {
				err = core.Observe(p, rec.Timestamps[i])
			} else {
				err = core.Process(p)
			}
			if err != nil {
				return err
			}
		}
		return nil
	case persist.OpAdvance:
		return core.Advance(rec.AdvanceTo)
	}
	return fmt.Errorf("unexpected %v record", rec.Op)
}

// failStream sets a diverged stream aside (journal renamed *.failed, name
// removed from the table). Called WITHOUT st.Mu: the failed/gone flags are
// already set, so every concurrent caller fails at its gate, and the map
// removal needs the engine lock (lock order is engine -> stream).
func (e *Engine) failStream(name string, st *Stream, cause error) {
	e.Logger.Error("apply diverged from the journal, stream set aside", "stream", name, "err", cause)
	if lg := st.log.Swap(nil); lg != nil {
		if err := lg.SetAside(); err != nil {
			e.Logger.Error("setting stream aside failed", "stream", name, "err", err)
		}
	}
	e.mu.Lock()
	if cur, ok := e.streams[name]; ok && cur == st {
		delete(e.streams, name)
	}
	e.mu.Unlock()
	e.MarkFailed(name, cause.Error())
}

// maybeCompactLocked kicks off a background snapshot compaction when the
// stream's journal has grown past the threshold. Caller holds st.Mu and has
// just published the current view, so the view's WalSeq covers every
// journaled record; the compaction itself captures that view and runs with NO
// stream lock at all — serialization and the disk I/O (snapshot write, WAL
// rewrite, fsyncs) happen entirely off the ingest path, and records appended
// meanwhile are preserved by CompactAt. At most one compaction per stream is
// in flight. Each compaction records a background trace of its own
// (serialize + wal.compact stages), always retained.
func (e *Engine) maybeCompactLocked(name string, st *Stream) {
	lg := st.log.Load()
	if lg == nil || !lg.ShouldCompact() {
		return
	}
	if !st.compacting.CompareAndSwap(false, true) {
		return
	}
	v := st.view.Load()
	go func() {
		defer st.compacting.Store(false)
		CompactStartHook()
		if st.gone.Load() {
			return
		}
		ctx, root := e.Tracer.StartBackground(context.Background(), "compact")
		root.SetAttr("stream", name)
		defer root.End()
		_, serialize := obs.StartSpan(ctx, "serialize")
		snap, _, err := v.Snapshot()
		serialize.End()
		if err != nil {
			root.SetAttr("error", err.Error())
			e.Logger.Error("compaction: serializing the view failed", "err", err)
			return
		}
		_, compact := obs.StartSpan(ctx, "wal.compact")
		err = lg.CompactAt(v.WalSeq, snap)
		compact.End()
		if err != nil && !errors.Is(err, persist.ErrLogRemoved) {
			root.SetAttr("error", err.Error())
			e.Logger.Error("compaction failed", "err", err)
		}
	}()
}
