package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/obs"
	"coresetclustering/internal/persist"
)

// ValidateBatch enforces every precondition of an ingest batch BEFORE any
// point is applied, so a rejected batch never partially mutates the stream:
// non-empty, finite coordinates, rectangular dimensions, and (when present)
// one sorted non-negative timestamp per point.
func ValidateBatch(points metric.Dataset, timestamps []int64) error {
	if len(points) == 0 {
		return errf(CodeEmptyBatch, "empty batch")
	}
	if err := points.Validate(); err != nil {
		code := CodeInvalidPoint
		if errors.Is(err, metric.ErrDimensionMismatch) {
			code = CodeDimensionMismatch
		}
		return wrapErr(code, err)
	}
	if points.Dim() == 0 {
		// Zero-dimension points would collide with the "dimension not yet
		// known" sentinel and poison later real batches.
		return errf(CodeInvalidPoint, "points must have at least one coordinate")
	}
	if timestamps != nil {
		if len(timestamps) != len(points) {
			return errf(CodeInvalidTimestamps, "%d timestamps for %d points", len(timestamps), len(points))
		}
		for i, ts := range timestamps {
			if ts < 0 {
				return errf(CodeInvalidTimestamps, "timestamp %d is negative (%d)", i, ts)
			}
			if i > 0 && ts < timestamps[i-1] {
				return errf(CodeInvalidTimestamps,
					"timestamp %d (%d) precedes timestamp %d (%d)", i, ts, i-1, timestamps[i-1])
			}
		}
	}
	return nil
}

// ApplyPointHook is a test seam called before each point of a batch is
// applied: a non-nil error simulates a mid-batch apply failure, which is
// otherwise unreachable because batches are fully validated up front. The
// default is free of overhead beyond one predictable branch.
var ApplyPointHook = func(i int) error { return nil }

// CompactStartHook is a test seam called at the start of a background
// compaction, before the view is serialized; tests block here to prove
// ingest proceeds while a compaction is in flight.
var CompactStartHook = func() {}

// Ingest applies one fully validated, stream-owned batch to the named
// stream (creating it on first touch with p), journaling it first when the
// engine is durable. binaryBytes is the request-body size of a binary-protocol
// batch (for the protocol counters), or negative for JSON.
//
// Under group commit the WAL write (BeginBatch) is issued under the stream
// mutex — so journal order equals apply order — but the covering fsync is
// awaited AFTER the mutex is released: while this batch's fsync is in flight,
// the next batches append their frames and join the same disk flush, which is
// where the -fsync=always throughput multiple comes from. The acknowledgement
// still implies durability per the fsync mode; a Wait failure is an internal
// error on a now-poisoned log, exactly like an inline fsync failure.
func (e *Engine) Ingest(ctx context.Context, name string, batch metric.Dataset, timestamps []int64, binaryBytes int, p CreateParams) (StreamStats, error) {
	if timestamps != nil {
		// Reject timestamps aimed at a non-window stream BEFORE getOrCreate
		// runs: otherwise a first ingest that forgot ?window= would create a
		// plain stream as a side effect of its own rejection, permanently
		// locking the name to the wrong flavour. (The locked re-check below
		// stays authoritative against creation races.)
		if st, ok := e.Lookup(name); ok {
			// The flavour of a hosted stream never changes, so the pointer
			// read needs no stream mutex.
			if st.core.Window() == nil {
				return StreamStats{}, errf(CodeNotWindowed,
					"timestamps are only accepted by window streams (create with ?window= or ?windowDur=)")
			}
		} else if p.WinErr == nil && p.WinSize == 0 && p.WinDur == 0 {
			// == 0, not <= 0: explicitly negative bounds fall through to
			// getOrCreate's own validation and report invalid_param instead
			// of a misleading "add ?window=" hint.
			return StreamStats{}, errf(CodeNotWindowed,
				"timestamped batches need a window stream: create it with ?window= or ?windowDur=")
		}
	}
	st, err := e.getOrCreate(name, p)
	if err != nil {
		return StreamStats{}, err
	}

	st.Mu.Lock()
	if err := st.gate(); err != nil {
		st.Mu.Unlock()
		return StreamStats{}, err
	}
	if dim := st.core.Dim(); dim != 0 && batch.Dim() != dim {
		st.Mu.Unlock()
		return StreamStats{}, errf(CodeDimensionMismatch,
			"batch dimension %d does not match stream dimension %d", batch.Dim(), dim)
	}
	if timestamps != nil {
		w := st.core.Window()
		if w == nil {
			st.Mu.Unlock()
			return StreamStats{}, errf(CodeNotWindowed,
				"timestamps are only accepted by window streams (create with ?window= or ?windowDur=)")
		}
		// The stream's clock only moves forward; checked up front so the
		// whole batch is rejected before any point lands — and before it is
		// journaled, so a record that would fail replay is never written.
		if last := w.Now(); timestamps[0] < last {
			st.Mu.Unlock()
			return StreamStats{}, errf(CodeInvalidTimestamps,
				"batch starts at timestamp %d, stream is already at %d", timestamps[0], last)
		}
	}
	// Journal, then apply: the batch has passed every validation that could
	// reject it, so the WAL record and the in-memory mutation stand or fall
	// together, and the acknowledgement below implies durability (per the
	// fsync mode). The frame is written and sequenced here under st.Mu —
	// journal order equals apply order — but under group commit the covering
	// fsync is awaited only after the mutex is released, so concurrent
	// batches on this and other streams share disk flushes.
	var pending *persist.Pending
	if lg := st.log.Load(); lg != nil {
		_, journal := obs.StartSpan(ctx, "journal")
		pn, err := lg.BeginBatch(batch, timestamps)
		journal.End()
		if err != nil {
			st.Mu.Unlock()
			return StreamStats{}, wrapErr(CodeInternal, err)
		}
		pending = pn
	}
	_, apply := obs.StartSpan(ctx, "apply")
	apply.SetAttr("points", strconv.Itoa(len(batch)))
	var applyErr error
	for i, pt := range batch {
		if applyErr = ApplyPointHook(i); applyErr != nil {
			break
		}
		if timestamps != nil {
			applyErr = st.core.Observe(pt, timestamps[i])
		} else {
			applyErr = st.core.Process(pt)
		}
		if applyErr != nil {
			break
		}
	}
	apply.End()
	if applyErr != nil {
		// The journal acknowledged records the in-memory state no longer
		// reflects (the batch was only partially applied): every later answer
		// and every replay would silently diverge. Fail the stream — set it
		// aside like an unrecoverable boot, free the name — instead of
		// serving corrupt state.
		st.failed.Store(true)
		st.gone.Store(true)
		st.Mu.Unlock()
		e.failStream(name, st, applyErr)
		return StreamStats{}, wrapErr(CodeStreamFailed,
			fmt.Errorf("batch failed to apply after it was journaled; %w: %v", ErrFailed, applyErr))
	}
	st.version++
	_, publish := obs.StartSpan(ctx, "publish")
	st.publishLocked(e.Metrics)
	publish.End()
	e.maybeCompactLocked(name, st)
	stats := e.StatsFromView(name, st, st.view.Load())
	st.Mu.Unlock()
	// Block for durability OUTSIDE the stream mutex: this is the group-commit
	// window — while this batch's fsync is in flight, the next requests take
	// st.Mu, journal their frames and join the next flush. A Wait failure
	// means the fsync failed after the frame was written; the log is poisoned
	// and the outcome is indeterminate (the frame may or may not survive
	// recovery), so the client gets an internal error, never an ack. The
	// applied-but-unacked view state is the same transient recovery would
	// produce. WaitCtx attributes the enqueue→ack time to this request's
	// trace as a wal.wait span.
	if pending != nil {
		if err := pending.WaitCtx(ctx); err != nil {
			return StreamStats{}, wrapErr(CodeInternal, err)
		}
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
	st.Mu.Lock()
	if err := st.gate(); err != nil {
		st.Mu.Unlock()
		return StreamStats{}, err
	}
	w := st.core.Window()
	if w == nil {
		st.Mu.Unlock()
		return StreamStats{}, errf(CodeNotWindowed, "only window streams have a clock to advance")
	}
	// Validated before journaling, so a record that would fail replay is
	// never written.
	if to < 0 {
		st.Mu.Unlock()
		return StreamStats{}, errf(CodeInvalidTimestamps, "advance target %d is negative", to)
	}
	if last := w.Now(); to < last {
		st.Mu.Unlock()
		return StreamStats{}, errf(CodeInvalidTimestamps,
			"advance target %d precedes the stream clock %d", to, last)
	}
	var pending *persist.Pending
	if lg := st.log.Load(); lg != nil {
		_, journal := obs.StartSpan(ctx, "journal")
		p, err := lg.BeginAdvance(to)
		journal.End()
		if err != nil {
			st.Mu.Unlock()
			return StreamStats{}, wrapErr(CodeInternal, err)
		}
		pending = p
	}
	_, apply := obs.StartSpan(ctx, "apply")
	if err := st.core.Advance(to); err != nil {
		apply.End()
		// Same divergence as a mid-batch apply failure: the journal holds a
		// record the in-memory state rejected.
		st.failed.Store(true)
		st.gone.Store(true)
		st.Mu.Unlock()
		e.failStream(name, st, err)
		return StreamStats{}, wrapErr(CodeStreamFailed,
			fmt.Errorf("advance failed to apply after it was journaled; %w: %v", ErrFailed, err))
	}
	apply.End()
	st.version++
	_, publish := obs.StartSpan(ctx, "publish")
	st.publishLocked(e.Metrics)
	publish.End()
	e.maybeCompactLocked(name, st)
	stats := e.StatsFromView(name, st, st.view.Load())
	st.Mu.Unlock()
	// Same ordering as Ingest: durability is awaited outside st.Mu so
	// concurrent writers share the covering fsync.
	if pending != nil {
		if err := pending.WaitCtx(ctx); err != nil {
			return StreamStats{}, wrapErr(CodeInternal, err)
		}
	}
	return stats, nil
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
