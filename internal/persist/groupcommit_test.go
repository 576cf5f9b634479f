package persist

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coresetclustering/internal/metric"
)

// TestGroupCommitDurableAndOrdered hammers one log from many goroutines under
// FsyncAlways, then recovers the directory cold and checks that every
// acknowledged batch is present exactly once and that sequence numbers are
// dense — grouping must not reorder, drop or double-write frames.
func TestGroupCommitDurableAndOrdered(t *testing.T) {
	dir := t.TempDir()
	var groups, grouped atomic.Int64
	s, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1, Hooks: Hooks{
		GroupCommitDone: func(n int, _ time.Duration) {
			groups.Add(1)
			grouped.Add(int64(n))
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Create("s", testMeta())
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Tag each batch in its first coordinate so recovery can
				// account for every ack.
				b := metric.Dataset{{float64(w*1000 + i), 1}}
				if err := appendBatch(l, b, nil); err != nil {
					errs <- fmt.Errorf("writer %d batch %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := grouped.Load(); got != writers*perWriter {
		t.Fatalf("GroupCommitDone accounted %d appends, want %d", got, writers*perWriter)
	}
	t.Logf("%d appends in %d commit groups", grouped.Load(), groups.Load())

	s2, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err != nil {
		t.Fatalf("recover: %+v", recs)
	}
	rec := recs[0]
	if rec.Stats.TornTail {
		t.Fatalf("torn tail after clean close: %s", rec.Stats.TornDetail)
	}
	seen := make(map[float64]bool)
	prevSeq := uint64(1) // the create record
	for _, r := range rec.Tail {
		if r.Seq != prevSeq+1 {
			t.Fatalf("sequence gap: %d after %d", r.Seq, prevSeq)
		}
		prevSeq = r.Seq
		if len(r.Points) != 1 {
			t.Fatalf("batch of %d points", len(r.Points))
		}
		tag := r.Points[0][0]
		if seen[tag] {
			t.Fatalf("batch %v recovered twice", tag)
		}
		seen[tag] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("recovered %d acked batches, want %d", len(seen), writers*perWriter)
	}
}

// TestGroupCommitCoalesces proves grouping actually happens on a store opened
// with nothing but FsyncAlways — group commit is that mode's only path, not
// an option: with many concurrent waiters the committer must cover more than
// one append per fsync at least once (a group deeper than one, fsync count
// strictly below append count). Whether any two appends actually overlap in
// one cycle is a scheduling race — on a filesystem where fsync is nearly free
// (tmpfs CI runners) the committer can legitimately keep up 1:1 — so the race
// is retried a few times and the test only fails if coalescing NEVER happens.
func TestGroupCommitCoalesces(t *testing.T) {
	const attempts = 10
	for attempt := 1; attempt <= attempts; attempt++ {
		var fsyncs, appends, deepest atomic.Int64
		s, err := Open(t.TempDir(), Options{Fsync: FsyncAlways, Hooks: Hooks{
			FsyncDone:  func(time.Duration) { fsyncs.Add(1) },
			AppendDone: func(Op, int, time.Duration) { appends.Add(1) },
			// Fired by the one committer goroutine: no compare-and-swap needed.
			GroupCommitDone: func(n int, _ time.Duration) {
				if int64(n) > deepest.Load() {
					deepest.Store(int64(n))
				}
			},
		}})
		if err != nil {
			t.Fatal(err)
		}
		l, err := s.Create("s", testMeta())
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		// Begin every append before waiting on any: queue depth builds while
		// the committer fsyncs, which is the condition coalescing needs.
		const writers, perWriter = 16, 10
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pendings := make([]*Pending, 0, perWriter)
				for i := 0; i < perWriter; i++ {
					p, err := l.BeginBatch(testBatch(1, 2, int64(w*100+i)), nil)
					if err != nil {
						t.Error(err)
						return
					}
					pendings = append(pendings, p)
				}
				for _, p := range pendings {
					if err := p.Wait(); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		s.Close()
		if t.Failed() {
			return
		}
		// Create's resetWAL syncs the file image too, but via swapWAL, not
		// FsyncDone — so FsyncDone counts exactly the commit-cycle fsyncs.
		if a, f, d := appends.Load(), fsyncs.Load(), deepest.Load(); f < a && d > 1 {
			t.Logf("attempt %d: %d appends covered by %d fsyncs, deepest group %d", attempt, a, f, d)
			return
		}
	}
	t.Fatalf("no coalescing in %d attempts: every append got its own fsync", attempts)
}

// TestGroupCommitSequentialDepthOne pins the deterministic case the daemon's
// exact-series metrics test relies on: a lone synchronous caller always forms
// groups of exactly one.
func TestGroupCommitSequentialDepthOne(t *testing.T) {
	var bad atomic.Int64
	s, err := Open(t.TempDir(), Options{Fsync: FsyncAlways, Hooks: Hooks{
		GroupCommitDone: func(n int, _ time.Duration) {
			if n != 1 {
				bad.Add(1)
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := s.Create("s", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := appendBatch(l, testBatch(2, 2, int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d groups with depth != 1 from a sequential writer", n)
	}
}

// TestGroupCommitSpansLogs: a commit cycle whose members interleave several
// logs fsyncs each log once and resolves every member with its own log's
// result — a removed log's members fail, the others succeed.
func TestGroupCommitSpansLogs(t *testing.T) {
	var fsyncs, depth atomic.Int64
	s, err := Open(t.TempDir(), Options{Fsync: FsyncAlways, Hooks: Hooks{
		FsyncDone:       func(time.Duration) { fsyncs.Add(1) },
		GroupCommitDone: func(n int, _ time.Duration) { depth.Store(int64(n)) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var logs [3]*Log
	for i := range logs {
		if logs[i], err = s.Create(fmt.Sprint("s", i), testMeta()); err != nil {
			t.Fatal(err)
		}
	}
	if err := logs[2].Remove(); err != nil {
		t.Fatal(err)
	}
	var group []*Pending
	for _, i := range []int{0, 1, 2, 0, 1, 0, 2} {
		group = append(group, &Pending{l: logs[i], op: OpBatch, start: time.Now(), done: make(chan struct{})})
	}
	members := append([]*Pending(nil), group...)
	s.commitGroup(group)
	if f, d := fsyncs.Load(), depth.Load(); f != 2 || d != int64(len(members)) {
		t.Fatalf("%d fsyncs for a group of depth %d, want 2 fsyncs (one per live log) and depth %d", f, d, len(members))
	}
	for i, p := range members {
		err := p.Wait()
		if removed := p.l == logs[2]; removed != errors.Is(err, ErrLogRemoved) || (!removed && err != nil) {
			t.Fatalf("member %d (log %s): %v", i, p.l.name, err)
		}
	}
}

// TestSyncerPerFsyncMode pins what each fsync mode runs: one syncer
// goroutine under FsyncAlways (the committer, so a Pending resolves only once
// its covering fsync is done) and under FsyncInterval (the ticker, so the
// Pending comes back resolved and the log is left dirty), none under
// FsyncNever (resolved, nothing marked).
func TestSyncerPerFsyncMode(t *testing.T) {
	for _, tc := range []struct {
		mode             FsyncMode
		syncer, resolved bool
		dirtyAfterAppend bool
	}{
		{FsyncAlways, true, false, false},
		{FsyncInterval, true, true, true},
		{FsyncNever, false, true, false},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			s, err := Open(t.TempDir(), Options{Fsync: tc.mode, FsyncInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			if got := s.syncerDone != nil; got != tc.syncer {
				t.Fatalf("syncer goroutine running = %v, want %v", got, tc.syncer)
			}
			l, err := s.Create("s", testMeta())
			if err != nil {
				t.Fatal(err)
			}
			p, err := l.BeginBatch(testBatch(1, 2, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.done == nil; got != tc.resolved {
				t.Fatalf("Pending resolved synchronously = %v, want %v", got, tc.resolved)
			}
			if err := p.Wait(); err != nil {
				t.Fatal(err)
			}
			l.mu.Lock()
			dirty := l.dirty
			l.mu.Unlock()
			if dirty != tc.dirtyAfterAppend {
				t.Fatalf("log dirty after the append = %v, want %v", dirty, tc.dirtyAfterAppend)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.syncer {
				select {
				case <-s.syncerDone:
				default:
					t.Fatal("syncer goroutine still running after Close")
				}
			}
		})
	}
}

// TestGroupCommitAfterCloseFallsBack: an append racing Close must either be
// resolved by the committer or, finding it stopped, commit a group of one on
// its own goroutine — never hang, never ack without durability. We stop the
// committer directly since the race window is tiny.
func TestGroupCommitAfterCloseFallsBack(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Create("s", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the committer already stopped while the log is still open.
	s.stopSyncer()

	if err := appendBatch(l, testBatch(1, 2, 1), nil); err != nil {
		t.Fatalf("post-stop append did not fall back: %v", err)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("seq %d, want 2", l.LastSeq())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitRemovedLogResolvesPending: Pendings for a log removed before
// its covering fsync resolve with ErrLogRemoved instead of hanging.
func TestGroupCommitRemovedLogResolvesPending(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := s.Create("s", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	// Remove the log, then resolve a hand-built Pending through the group
	// path: commitSync must report ErrLogRemoved.
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := l.commitSync(&s.opts.Hooks); !errors.Is(err, ErrLogRemoved) {
		t.Fatalf("commitSync on removed log: %v", err)
	}
	if _, err := l.BeginBatch(testBatch(1, 2, 1), nil); !errors.Is(err, ErrLogRemoved) {
		t.Fatalf("BeginBatch on removed log: %v", err)
	}
}

// TestGroupCommitCompactionConcurrent interleaves appends and CompactAt under
// FsyncAlways: compaction swaps the WAL under the committer and nothing
// may be lost.
func TestGroupCommitCompactionConcurrent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Create("s", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 15
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := appendBatch(l, metric.Dataset{{float64(w*1000 + i), 2}}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Compact concurrently at whatever horizon is current; the sketch stands
	// in for the stream state at that sequence.
	for c := 0; c < 5; c++ {
		seq := l.LastSeq()
		if err := l.CompactAt(seq, []byte(fmt.Sprintf("sketch@%d", seq))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold recovery: snapshot horizon + replay tail must still cover every
	// append exactly once in sequence order.
	s2, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err != nil {
		t.Fatalf("recover: %+v", recs)
	}
	rec := recs[0]
	total := int(rec.Stats.SnapshotSeq) - 1 + len(rec.Tail) // records folded below the horizon + replayed tail
	if total != writers*perWriter {
		t.Fatalf("snapshot horizon %d + tail %d covers %d appends, want %d",
			rec.Stats.SnapshotSeq, len(rec.Tail), total, writers*perWriter)
	}
	prev := rec.Stats.SnapshotSeq
	for _, r := range rec.Tail {
		if r.Seq != prev+1 {
			t.Fatalf("tail sequence gap: %d after %d", r.Seq, prev)
		}
		prev = r.Seq
	}
}
