package persist

import (
	"context"
	"fmt"
	"time"
)

// maxCommitGroup bounds how many queued appends one committer cycle drains.
// The bound exists only to keep a single cycle's ack fan-out finite under a
// firehose; 4096 is far beyond any realistic in-flight count.
const maxCommitGroup = 4096

// Pending is an append whose frame is written (and sequenced) but whose
// covering fsync may not have happened yet. Wait blocks until the append is
// durable per the store's fsync policy and returns the append's final error.
// Under FsyncInterval and FsyncNever nothing is synced before the ack, so the
// Pending is already resolved when returned and Wait is free.
type Pending struct {
	l     *Log
	seq   uint64
	op    Op
	bytes int
	start time.Time

	// done is nil when the Pending was resolved synchronously; otherwise it
	// is closed by the committer after err is set (close is the
	// happens-before edge that publishes err).
	done chan struct{}
	err  error
}

// Seq returns the record's sequence number, assigned at write time — valid
// immediately, even before Wait returns.
func (p *Pending) Seq() uint64 { return p.seq }

// Wait blocks until the append's covering fsync completes (or fails) and
// returns the append's final error. It is safe to call multiple times.
func (p *Pending) Wait() error {
	if p.done != nil {
		<-p.done
	}
	return p.err
}

// WaitCtx is Wait plus latency attribution: after the append is durable it
// fires the store's AppendWait hook (when set) with ctx and the waiter's
// enqueue→ack time, so a traced request can record how long it sat in the
// group-commit queue. The wait itself is not cancellable — durability was
// already promised when the frame was written — so ctx is carried, not
// watched. Resolved-synchronously Pendings (FsyncInterval, FsyncNever) fire
// nothing.
func (p *Pending) WaitCtx(ctx context.Context) error {
	if p.done == nil {
		return p.err
	}
	<-p.done
	if hook := p.l.store.opts.Hooks.AppendWait; hook != nil {
		hook(ctx, p.op, time.Since(p.start))
	}
	return p.err
}

func (p *Pending) resolve(err error) {
	p.err = err
	close(p.done)
}

// stopSyncer is the one stop path: flip the flag and close the queue under
// commitMu (so a concurrent append either made it into the queue or sees the
// flag), then wait for the goroutine to drain — every outstanding Pending
// resolves before any log is closed underneath it.
func (s *Store) stopSyncer() {
	if s.commitQ == nil {
		return
	}
	s.commitMu.Lock()
	if !s.commitStopped {
		s.commitStopped = true
		close(s.commitQ)
	}
	s.commitMu.Unlock()
	<-s.syncerDone
}

// enqueueCommit hands a written-but-unsynced append to the committer. An
// append that races Close and finds the committer stopped commits a group of
// one on its own goroutine, through the same code path, so no Pending is ever
// left unresolved.
func (s *Store) enqueueCommit(p *Pending) {
	s.commitMu.Lock()
	if s.commitStopped {
		s.commitMu.Unlock()
		s.commitGroup([]*Pending{p})
		return
	}
	// A full queue blocks here while holding commitMu; the committer is
	// still draining (it only exits once the channel is closed, which
	// requires commitMu), so the send always completes.
	s.commitQ <- p
	s.commitMu.Unlock()
}

// syncLoop is the syncer goroutine. A waiter arriving on commitQ starts a
// commit cycle; a tick (FsyncInterval only — the ticker channel is nil
// otherwise, and nothing is ever queued then) flushes the dirty logs. Closing
// commitQ stops it in either mode.
func (s *Store) syncLoop() {
	defer close(s.syncerDone)
	var tick <-chan time.Time
	if s.opts.Fsync == FsyncInterval {
		t := time.NewTicker(s.opts.FsyncInterval)
		defer t.Stop()
		tick = t.C
	}
	group := make([]*Pending, 0, 64)
	for {
		select {
		case p, ok := <-s.commitQ:
			if !ok {
				return
			}
			group = append(group[:0], p)
			// Everything already queued behind p joins this cycle's fsync;
			// the non-blocking drain is what turns concurrent callers into a
			// group.
		drain:
			for len(group) < maxCommitGroup {
				select {
				case q, more := <-s.commitQ:
					if !more {
						break drain
					}
					group = append(group, q)
				default:
					break drain
				}
			}
			s.commitGroup(group)
		case <-tick:
			s.flushDirty()
		}
	}
}

// flushDirty syncs every dirty log once (an FsyncInterval tick) and reports
// the tick's latency when it synced anything.
func (s *Store) flushDirty() {
	s.mu.Lock()
	logs := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.mu.Unlock()
	cycleHook := s.opts.Hooks.FlushCycleDone
	var start time.Time
	if cycleHook != nil {
		start = time.Now()
	}
	flushed := 0
	for _, l := range logs {
		if l.flush() {
			flushed++
		}
	}
	if cycleHook != nil && flushed > 0 {
		cycleHook(time.Since(start), flushed)
	}
}

// commitGroup fsyncs each distinct log once and fans the result back out to
// every member of the group, preserving per-log enqueue order. Members are
// cleared from the group as they resolve; a group almost always covers one
// log (one hot stream), so this is one pass without allocation.
func (s *Store) commitGroup(group []*Pending) {
	hooks := &s.opts.Hooks
	var start time.Time
	if hooks.GroupCommitDone != nil {
		start = time.Now()
	}
	n := len(group)
	for i, p := range group {
		if p == nil {
			continue
		}
		err := p.l.commitSync(hooks)
		for j := i; j < n; j++ {
			if q := group[j]; q != nil && q.l == p.l {
				s.finish(q, err, hooks)
				group[j] = nil
			}
		}
	}
	if hooks.GroupCommitDone != nil {
		hooks.GroupCommitDone(n, time.Since(start))
	}
}

// finish resolves one group member and fires its AppendDone hook (latency
// measured begin-to-durable, queue wait included).
func (s *Store) finish(p *Pending, err error, hooks *Hooks) {
	if err == nil && hooks.AppendDone != nil {
		hooks.AppendDone(p.op, p.bytes, time.Since(p.start))
	}
	p.resolve(err)
}

// commitSync fsyncs the log once on behalf of a commit group. The fsync runs
// WITHOUT l.mu — that is the heart of group commit: while the disk flushes,
// the next wave of appenders writes its frames, so the following cycle
// covers a whole group instead of one. syncMu (acquired under l.mu, so the
// lock order is fixed) pins the file descriptor: compaction's WAL swap and
// Remove/Close block on it rather than closing the fd mid-fsync. Frames
// written to the fd after the fsync starts may or may not hit the disk with
// it — harmless, their own covering fsync comes next cycle; a frame carried
// into a swapped WAL is durable via the swap's full-image sync before the
// rename. A fsync failure poisons the log: the frames ARE fully written, so
// continuing to append would reuse sequence numbers behind them and recovery
// would truncate everything from there on as a torn tail. The stream keeps
// answering reads; writes fail loudly until the next compaction or restart
// rebuilds the log.
func (l *Log) commitSync(hooks *Hooks) error {
	l.mu.Lock()
	if l.removed || l.f == nil {
		l.mu.Unlock()
		return ErrLogRemoved
	}
	if l.failed != nil {
		err := fmt.Errorf("persist: log is poisoned by an earlier write failure: %w", l.failed)
		l.mu.Unlock()
		return err
	}
	f := l.f
	l.syncMu.Lock()
	l.mu.Unlock()
	var syncStart time.Time
	if hooks.FsyncDone != nil {
		syncStart = time.Now()
	}
	err := f.Sync()
	l.syncMu.Unlock()
	if err != nil {
		l.mu.Lock()
		l.failed = fmt.Errorf("fsync failed after a durable frame: %w", err)
		l.mu.Unlock()
		return fmt.Errorf("persist: %w", err)
	}
	if hooks.FsyncDone != nil {
		hooks.FsyncDone(time.Since(syncStart))
	}
	return nil
}
