package persist

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"coresetclustering/internal/metric"
)

// hookCounts collects Hooks firings behind atomics so the background flusher
// and compactions can fire them concurrently with the test body.
type hookCounts struct {
	appends, appendBytes   atomic.Int64
	fsyncs                 atomic.Int64
	flushErrors            atomic.Int64
	compactions, folded    atomic.Int64
	tornTails, tornBytes   atomic.Int64
	recoveries, recPoints  atomic.Int64
	recRecords             atomic.Int64
	flushCycles, flushed   atomic.Int64
	negativeDurationSeen   atomic.Bool
	zeroAppendSizeObserved atomic.Bool
}

func (h *hookCounts) hooks() Hooks {
	return Hooks{
		AppendDone: func(op Op, bytes int, d time.Duration) {
			h.appends.Add(1)
			h.appendBytes.Add(int64(bytes))
			if d < 0 {
				h.negativeDurationSeen.Store(true)
			}
			if bytes == 0 {
				h.zeroAppendSizeObserved.Store(true)
			}
		},
		FsyncDone: func(d time.Duration) {
			h.fsyncs.Add(1)
			if d < 0 {
				h.negativeDurationSeen.Store(true)
			}
		},
		FlushError: func(error) { h.flushErrors.Add(1) },
		CompactionDone: func(d time.Duration, folded int) {
			h.compactions.Add(1)
			h.folded.Add(int64(folded))
		},
		TornTail: func(b int64) {
			h.tornTails.Add(1)
			h.tornBytes.Add(b)
		},
		RecoveryDone: func(name string, d time.Duration, records int, points int64) {
			h.recoveries.Add(1)
			h.recRecords.Add(int64(records))
			h.recPoints.Add(points)
		},
		FlushCycleDone: func(d time.Duration, flushed int) {
			h.flushCycles.Add(1)
			h.flushed.Add(int64(flushed))
			if d < 0 {
				h.negativeDurationSeen.Store(true)
			}
		},
	}
}

func hookBatch(n int) metric.Dataset {
	pts := make(metric.Dataset, n)
	for i := range pts {
		pts[i] = metric.Point{float64(i), float64(i) + 0.5}
	}
	return pts
}

func TestHooksAppendFsyncCompact(t *testing.T) {
	dir := t.TempDir()
	var hc hookCounts
	s, err := Open(dir, Options{Fsync: FsyncAlways, Hooks: hc.hooks()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := s.Create("h", Meta{K: 2, Budget: 16, Space: "euclidean"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendBatch(l, hookBatch(4), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := hc.appends.Load(); got != 3 {
		t.Fatalf("AppendDone fired %d times, want 3", got)
	}
	if hc.fsyncs.Load() != 3 {
		t.Fatalf("FsyncDone fired %d times, want 3 (FsyncAlways)", hc.fsyncs.Load())
	}
	if hc.appendBytes.Load() <= 0 || hc.zeroAppendSizeObserved.Load() {
		t.Fatal("AppendDone must report the framed record size")
	}
	if hc.negativeDurationSeen.Load() {
		t.Fatal("hook durations must be non-negative")
	}

	if err := l.Compact([]byte("sketch-bytes")); err != nil {
		t.Fatal(err)
	}
	if hc.compactions.Load() != 1 {
		t.Fatalf("CompactionDone fired %d times, want 1", hc.compactions.Load())
	}
	if got := hc.folded.Load(); got != 3 {
		t.Fatalf("folded = %d, want 3 (the create record is metadata, not data)", got)
	}

	// CompactAt with a tail: two more appends, capture at the first.
	if err := appendBatch(l, hookBatch(2), nil); err != nil {
		t.Fatal(err)
	}
	capture := l.LastSeq()
	if err := appendBatch(l, hookBatch(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.CompactAt(capture, []byte("sketch-2")); err != nil {
		t.Fatal(err)
	}
	if hc.compactions.Load() != 2 {
		t.Fatalf("CompactionDone fired %d times, want 2", hc.compactions.Load())
	}
	if got := hc.folded.Load(); got != 4 {
		t.Fatalf("cumulative folded = %d, want 4 (1 folded by CompactAt, 1 carried over)", got)
	}
}

func TestHooksTornTailAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Create("r", Meta{K: 2, Budget: 16, Space: "euclidean"})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, hookBatch(5), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append garbage that cannot decode as a frame.
	walPath := filepath.Join(dir, encodeName("r"), walFile)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var hc hookCounts
	s2, err := Open(dir, Options{Fsync: FsyncNever, Hooks: hc.hooks()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recovered, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || recovered[0].Err != nil {
		t.Fatalf("recovery: %+v", recovered)
	}
	if hc.tornTails.Load() != 1 || hc.tornBytes.Load() != 3 {
		t.Fatalf("TornTail fired %d times with %d bytes, want 1/3", hc.tornTails.Load(), hc.tornBytes.Load())
	}
	if hc.recoveries.Load() != 1 {
		t.Fatalf("RecoveryDone fired %d times, want 1", hc.recoveries.Load())
	}
	if hc.recRecords.Load() != 2 { // create + batch
		t.Fatalf("RecoveryDone records = %d, want 2", hc.recRecords.Load())
	}
	if hc.recPoints.Load() != 5 {
		t.Fatalf("RecoveryDone points = %d, want 5", hc.recPoints.Load())
	}
}

func TestHooksIntervalFlush(t *testing.T) {
	dir := t.TempDir()
	var hc hookCounts
	s, err := Open(dir, Options{Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond, Hooks: hc.hooks()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := s.Create("f", Meta{K: 2, Budget: 16, Space: "euclidean"})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, hookBatch(2), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for hc.fsyncs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if hc.fsyncs.Load() == 0 {
		t.Fatal("background flusher never reported an fsync")
	}
	if hc.flushErrors.Load() != 0 {
		t.Fatalf("unexpected flush errors: %d", hc.flushErrors.Load())
	}
	if hc.flushCycles.Load() == 0 || hc.flushed.Load() == 0 {
		t.Fatalf("FlushCycleDone fired %d times covering %d logs, want at least one non-empty cycle",
			hc.flushCycles.Load(), hc.flushed.Load())
	}
}

// TestHooksAppendWait: WaitCtx on an FsyncAlways store fires AppendWait on
// the waiter's goroutine with the caller's context and a positive
// enqueue→ack latency; plain Wait, and stores that ack before any fsync,
// never fire it.
func TestHooksAppendWait(t *testing.T) {
	type ctxKey struct{}
	var (
		fires   atomic.Int64
		badOp   atomic.Bool
		badWait atomic.Bool
		ctxSeen atomic.Bool
	)
	hooks := Hooks{
		AppendWait: func(ctx context.Context, op Op, wait time.Duration) {
			fires.Add(1)
			if op != OpBatch {
				badOp.Store(true)
			}
			if wait <= 0 {
				badWait.Store(true)
			}
			if v, _ := ctx.Value(ctxKey{}).(string); v == "req-1" {
				ctxSeen.Store(true)
			}
		},
	}

	s, err := Open(t.TempDir(), Options{Fsync: FsyncAlways, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := s.Create("gw", Meta{K: 2, Budget: 16, Space: "euclidean"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.WithValue(context.Background(), ctxKey{}, "req-1")
	p, err := l.BeginBatch(hookBatch(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if fires.Load() != 1 {
		t.Fatalf("AppendWait fired %d times, want 1", fires.Load())
	}
	if badOp.Load() || badWait.Load() {
		t.Fatal("AppendWait got wrong op or non-positive wait")
	}
	if !ctxSeen.Load() {
		t.Fatal("AppendWait did not receive the waiter's context")
	}
	// Context-free Wait must not fire the hook.
	p2, err := l.BeginBatch(hookBatch(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
	if fires.Load() != 1 {
		t.Fatalf("plain Wait fired AppendWait (now %d fires)", fires.Load())
	}

	// A store that acks before any fsync resolves synchronously: WaitCtx is
	// free and silent.
	s2, err := Open(t.TempDir(), Options{Fsync: FsyncInterval, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	l2, err := s2.Create("ng", Meta{K: 2, Budget: 16, Space: "euclidean"})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := l2.BeginBatch(hookBatch(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p3.WaitCtx(ctx); err != nil {
		t.Fatal(err)
	}
	if fires.Load() != 1 {
		t.Fatalf("FsyncInterval WaitCtx fired AppendWait (now %d fires)", fires.Load())
	}
}
