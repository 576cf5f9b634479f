package persist

import (
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coresetclustering/internal/metric"
)

const (
	walFile  = "wal"
	snapFile = "snap"
	// tombSuffix marks a stream directory mid-deletion: the rename is the
	// atomic commit point of a delete, the RemoveAll behind it may be redone
	// on the next open. failedSuffix sets aside unrecoverable streams so the
	// name is freed without destroying evidence. Neither suffix can collide
	// with an encoded stream name (base64url never contains '.').
	tombSuffix   = ".tomb"
	failedSuffix = ".failed"
	tmpSuffix    = ".tmp"
)

// encodeName maps a stream name to its directory name (URL-safe base64, so
// arbitrary names — slashes, dots, control bytes — cannot escape the root).
func encodeName(name string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(name))
}

func decodeName(dir string) (string, error) {
	b, err := base64.RawURLEncoding.DecodeString(dir)
	if err != nil {
		return "", fmt.Errorf("persist: undecodable stream directory %q: %w", dir, err)
	}
	return string(b), nil
}

// Store manages the durability state of every stream under one root
// directory. Open it once at boot, Recover() the existing streams, then
// Create/Replace logs as streams come and go. All methods are safe for
// concurrent use; per-stream appends additionally serialise on the Log.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool

	// Syncer state (see syncer.go). commitMu guards the stopped flag against
	// the queue close, so no append can race a send onto a closed channel.
	commitMu      sync.Mutex
	commitQ       chan *Pending
	commitStopped bool
	syncerDone    chan struct{}

	// dirOpHook sees each directory created or renamed in the store root and
	// each sync of the root, in order: op is "mkdir", "rename" or "syncdir",
	// path the directory made, renamed to or synced. Tests replace the no-op.
	dirOpHook func(op, path string)
	// dirSync fsyncs a directory of the store (syncDir); tests replace it to
	// fail one sync.
	dirSync func(dir string) error
}

// Open creates (if needed) the root directory, sweeps leftovers of
// interrupted deletes and writes (*.tomb, *.tmp), and starts the syncer
// goroutine unless opts.Fsync == FsyncNever.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("persist: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tombSuffix) || strings.HasSuffix(e.Name(), tmpSuffix) {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("persist: sweeping %s: %w", e.Name(), err)
			}
			continue
		}
		if !e.IsDir() {
			continue
		}
		// Stale in-flight writes inside a stream directory (a crash between
		// atomicWrite's temp file and its rename).
		inner, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		for _, f := range inner {
			if strings.HasSuffix(f.Name(), tmpSuffix) {
				if err := os.Remove(filepath.Join(dir, e.Name(), f.Name())); err != nil {
					return nil, fmt.Errorf("persist: sweeping %s/%s: %w", e.Name(), f.Name(), err)
				}
			}
		}
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), logs: make(map[string]*Log), dirOpHook: func(string, string) {}, dirSync: syncDir}
	if s.opts.Fsync != FsyncNever {
		// One syncer goroutine (syncer.go) serves both syncing modes. The
		// queue's buffer lets appenders enqueue without waiting for the cycle
		// in flight; its size only bounds how many wait there, not on commitMu.
		s.commitQ = make(chan *Pending, 1024)
		s.syncerDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close stops the syncer, syncs and closes every open log. The Store and
// its logs are unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := make([]*Log, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	s.logs = make(map[string]*Log)
	s.mu.Unlock()
	s.stopSyncer()
	var first error
	for _, l := range logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// register adds a log to the syncer set; it fails after Close.
func (s *Store) register(l *Log) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: store is closed")
	}
	s.logs[l.name] = l
	return nil
}

func (s *Store) unregister(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.logs, name)
}

// Create starts a fresh log for a new stream: its directory, a WAL whose
// first record journals the stream metadata. The name must not already have
// a live directory (recover existing streams before creating new ones).
func (s *Store) Create(name string, meta Meta) (*Log, error) {
	if name == "" {
		return nil, errors.New("persist: empty stream name")
	}
	if err := meta.validate(); err != nil {
		return nil, fmt.Errorf("persist: %v", err)
	}
	dir := filepath.Join(s.dir, encodeName(name))
	if _, err := os.Stat(dir); err == nil {
		return nil, fmt.Errorf("persist: stream %q already has a directory (recover it instead)", name)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s.dirOpHook("mkdir", dir)
	// Every batch acked into the stream lives under this entry: an unsynced
	// root fails the create.
	if err := s.syncRoot(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l := &Log{store: s, name: name, dir: dir, meta: meta}
	if err := l.resetWAL(1); err != nil {
		l.abandon()
		os.RemoveAll(dir)
		return nil, err
	}
	l.seq = 1
	l.publishStatsLocked()
	if err := s.register(l); err != nil {
		l.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return l, nil
}

// Replace installs a restored stream: directory (re)created, the given
// sketch written as the snapshot, and a fresh WAL journaling the new
// metadata. Any previous log handle for the name must be removed or closed
// first (the daemon marks the replaced stream gone before calling this).
func (s *Store) Replace(name string, meta Meta, snapshot []byte) (*Log, error) {
	if name == "" {
		return nil, errors.New("persist: empty stream name")
	}
	if err := meta.validate(); err != nil {
		return nil, fmt.Errorf("persist: %v", err)
	}
	dir := filepath.Join(s.dir, encodeName(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s.dirOpHook("mkdir", dir)
	// The restored state is acked on return: like Create, fail unsynced.
	if err := s.syncRoot(); err != nil {
		return nil, err
	}
	l := &Log{store: s, name: name, dir: dir, meta: meta}
	l.seq = 1
	if err := l.writeSnapshotLocked(1, snapshot); err != nil {
		return nil, err
	}
	if err := l.resetWAL(1); err != nil {
		l.abandon()
		return nil, err
	}
	if err := s.register(l); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// Log is the durability handle of one stream. Appends are serialised by the
// caller (the daemon holds the stream mutex) but the Log still locks
// internally so the syncer and compaction never race an append.
type Log struct {
	store *Store
	name  string
	dir   string
	meta  Meta

	mu sync.Mutex
	// syncMu pins l.f across a group-commit fsync that runs WITHOUT l.mu
	// (so writers keep appending frames while the disk flushes; frames
	// written mid-fsync are covered by the next cycle). Every site that
	// closes or replaces l.f takes syncMu around doing so; lock order is
	// always l.mu → syncMu.
	syncMu      sync.Mutex
	f           *os.File
	size        int64 // current wal file size
	seq         uint64
	snapSeq     uint64 // newest sequence folded into the snapshot file (0 = none)
	records     int    // records in the current wal (create record included)
	since       int    // records appended since the last compaction
	compactions int64
	dirty       bool
	removed     bool
	failed      error // first append failure; poisons the log (torn tail risk)

	// statsCache is the lock-free snapshot behind Stats(): refreshed after
	// every counter change, read without l.mu so the daemon's wait-free query
	// handlers never stall behind an in-flight append fsync or compaction.
	statsCache atomic.Pointer[LogStats]
}

// Name returns the stream name the log belongs to.
func (l *Log) Name() string { return l.name }

// Meta returns the stream metadata journaled in the create record.
func (l *Log) Meta() Meta { return l.meta }

// resetWAL atomically replaces the WAL with a fresh one holding only the
// header and a create record carrying seq (the metadata must survive log
// resets; replay skips it by sequence number when a snapshot covers it).
// When the metadata is not known yet (snapshot-only recovery, before
// AdoptMeta) the create record is omitted rather than journaled invalid.
// Callers hold l.mu or have exclusive access.
func (l *Log) resetWAL(seq uint64) error {
	img := fileHeader(walMagic)
	records := 0
	if l.meta.validate() == nil {
		img = appendFrame(img, seq, OpCreate, encodeCreate(l.meta))
		records = 1
	}
	return l.swapWAL(img, records, 0)
}

// swapWAL atomically replaces the WAL file with the given image (a complete
// file: header plus records) and adopts its descriptor and counters. Once
// the rename is done the new file is the log whatever else fails, so a
// failed sync of the stream directory after it is returned with the new
// descriptor adopted and the log poisoned. Callers hold l.mu or have
// exclusive access.
func (l *Log) swapWAL(img []byte, records, since int) error {
	// Write the replacement under a temp name and keep ITS file descriptor:
	// the fd follows the inode through the rename, so there is no window in
	// which l.f could point at an unlinked file. Any failure before the
	// rename leaves the old WAL (and l.f) fully intact and consistent.
	path := filepath.Join(l.dir, walFile)
	tmp := path + tmpSuffix
	sync := l.store.opts.Fsync != FsyncNever
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	l.syncMu.Lock()
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.syncMu.Unlock()
	l.size = int64(len(img))
	l.records = records
	l.since = since
	l.failed = nil
	if sync {
		// Until the stream directory is synced the rename may not survive a
		// power loss, and every record appended after it lives only in the
		// new inode: under Create, Replace, recovery's recreateWAL and
		// AdoptMeta the rename is what makes the WAL exist at all, and after
		// a compaction the batches acked next would be lost with it. The
		// caller fails; a compacted log stays poisoned, as after a failed
		// commit fsync.
		if err := l.store.dirSync(l.dir); err != nil {
			l.failed = fmt.Errorf("syncing the stream directory after a WAL swap: %w", err)
		}
	}
	l.publishStatsLocked()
	if l.failed != nil {
		return fmt.Errorf("persist: %w", l.failed)
	}
	return nil
}

// abandon closes the descriptor of a handle that failed before it was handed
// out.
func (l *Log) abandon() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// begin frames and writes one record and starts its durability; the write
// and the sequence number are serialised on l.mu. Under FsyncAlways the fsync
// is delegated to the store's committer: the returned Pending resolves after
// the next fsync of this log, which covers the frame. Under FsyncInterval the
// log is marked dirty for the next tick, and under FsyncNever nothing is
// synced; either way the Pending comes back resolved.
func (l *Log) begin(op Op, payload []byte) (*Pending, error) {
	l.mu.Lock()
	if l.removed {
		l.mu.Unlock()
		return nil, ErrLogRemoved
	}
	if l.failed != nil {
		l.mu.Unlock()
		return nil, fmt.Errorf("persist: log is poisoned by an earlier write failure: %w", l.failed)
	}
	if frameFixedLen+len(payload) > maxFrameLen {
		l.mu.Unlock()
		return nil, fmt.Errorf("persist: record of %d bytes exceeds the size bound", len(payload))
	}
	hooks := &l.store.opts.Hooks
	mode := l.store.opts.Fsync
	var start time.Time
	if mode == FsyncAlways || hooks.AppendDone != nil {
		start = time.Now()
	}
	seq := l.seq + 1
	frame := appendFrame(nil, seq, op, payload)
	n, err := l.f.Write(frame)
	if err != nil {
		// A partial frame is a torn tail: recovery truncates it, but further
		// appends to this handle would land behind garbage, so refuse them.
		if n > 0 {
			l.failed = err
		}
		l.mu.Unlock()
		return nil, fmt.Errorf("persist: %w", err)
	}
	// The frame is fully written and the sequence number consumed, so the
	// counters advance now, whatever the fsync mode.
	l.seq = seq
	l.size += int64(len(frame))
	l.records++
	l.since++
	l.publishStatsLocked()
	if mode != FsyncAlways {
		if mode == FsyncInterval {
			l.dirty = true
		}
		if hooks.AppendDone != nil {
			hooks.AppendDone(op, len(frame), time.Since(start))
		}
		l.mu.Unlock()
		return &Pending{l: l, seq: seq, op: op}, nil
	}
	l.mu.Unlock()
	p := &Pending{l: l, seq: seq, op: op, bytes: len(frame), start: start, done: make(chan struct{})}
	l.store.enqueueCommit(p)
	return p, nil
}

// BeginBatch journals one validated ingest batch (ts may be nil for untimed
// batches) and returns a Pending the caller Waits on for durability. Under
// FsyncAlways this lets the caller overlap its own work (applying the batch
// to in-memory state) with the covering group-commit fsync; under the other
// modes the Pending is already resolved. The record is sequenced when
// BeginBatch returns, so per-stream WAL order always matches apply order when
// callers hold the stream mutex across BeginBatch, as the daemon does.
func (l *Log) BeginBatch(points metric.Dataset, ts []int64) (*Pending, error) {
	payload, err := encodeBatch(points, ts)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return l.begin(OpBatch, payload)
}

// BeginAdvance journals a clock advance of a window stream and returns a
// Pending the caller Waits on for durability (see BeginBatch).
func (l *Log) BeginAdvance(ts int64) (*Pending, error) {
	if ts < 0 {
		return nil, fmt.Errorf("persist: advance to negative timestamp %d", ts)
	}
	return l.begin(OpAdvance, encodeAdvance(ts))
}

// flush syncs buffered appends (FsyncInterval mode) and reports whether a
// sync actually happened, so the syncer can attribute tick latency to the
// logs it flushed.
func (l *Log) flush() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dirty && !l.removed && l.f != nil {
		hooks := &l.store.opts.Hooks
		var start time.Time
		if hooks.FsyncDone != nil {
			start = time.Now()
		}
		if err := l.f.Sync(); err == nil {
			l.dirty = false
			if hooks.FsyncDone != nil {
				hooks.FsyncDone(time.Since(start))
			}
			return true
		} else if hooks.FlushError != nil {
			// The log stays dirty and is retried next tick; appends keep
			// succeeding meanwhile, so this callback is the only signal.
			hooks.FlushError(err)
		}
	}
	return false
}

// ShouldCompact reports whether enough records accumulated since the last
// compaction to be worth folding into a snapshot.
func (l *Log) ShouldCompact() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.store.opts.CompactEvery > 0 && l.since >= l.store.opts.CompactEvery && l.failed == nil && !l.removed
}

// writeSnapshotLocked writes the snapshot file atomically: temp file, fsync,
// rename, directory fsync. lastSeq is the newest WAL sequence number the
// snapshot's state includes; replay skips records at or below it.
func (l *Log) writeSnapshotLocked(lastSeq uint64, sketch []byte) error {
	if err := atomicWrite(filepath.Join(l.dir, snapFile), encodeSnapshot(lastSeq, sketch), l.store.opts.Fsync != FsyncNever); err != nil {
		return err
	}
	l.snapSeq = lastSeq
	return nil
}

// Compact folds the log into a snapshot: the sketch (the stream's complete
// serialized state, captured by the caller under the stream mutex) replaces
// every journaled record, and the WAL is reset. Crash-safe at every point:
// the snapshot rename is atomic, and until the WAL reset lands the old
// records are skipped on replay by sequence number.
func (l *Log) Compact(sketch []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.removed {
		return ErrLogRemoved
	}
	hooks := &l.store.opts.Hooks
	var start time.Time
	if hooks.CompactionDone != nil {
		start = time.Now()
	}
	folded := l.records
	if folded > 0 && l.meta.validate() == nil {
		folded-- // the re-written create record is metadata, not folded data
	}
	if err := l.writeSnapshotLocked(l.seq, sketch); err != nil {
		return err
	}
	if err := l.resetWAL(l.seq); err != nil {
		return err
	}
	l.compactions++
	l.dirty = false
	l.publishStatsLocked()
	if hooks.CompactionDone != nil {
		hooks.CompactionDone(time.Since(start), folded)
	}
	return nil
}

// CompactAt folds the log into a snapshot captured at captureSeq — a sequence
// number that may be OLDER than the log's current tip. Unlike Compact, which
// assumes the caller blocked appends while capturing the sketch, CompactAt is
// built for compaction off the ingest path: appends may land between the
// capture and this call, and every record with a sequence number beyond
// captureSeq is carried over verbatim into the rewritten WAL, so no
// acknowledged write is lost. Crash-safe at every point, like Compact.
func (l *Log) CompactAt(captureSeq uint64, sketch []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.removed {
		return ErrLogRemoved
	}
	if captureSeq < 1 || captureSeq > l.seq {
		return fmt.Errorf("persist: compaction capture sequence %d outside the log's range [1, %d]", captureSeq, l.seq)
	}
	if captureSeq < l.snapSeq {
		// The snapshot horizon only moves forward: replacing a newer snapshot
		// with this stale capture would orphan the records between the two
		// (folded into the newer snapshot, no longer in the WAL).
		return fmt.Errorf("persist: compaction capture sequence %d is behind the snapshot horizon %d", captureSeq, l.snapSeq)
	}
	hooks := &l.store.opts.Hooks
	var start time.Time
	if hooks.CompactionDone != nil {
		start = time.Now()
	}
	if err := l.writeSnapshotLocked(captureSeq, sketch); err != nil {
		return err
	}
	// Find the WAL tail beyond the capture point. The file on disk is exactly
	// what this handle wrote (appends are serialised on l.mu), so a strict
	// re-read is cheap insurance, not a recovery pass: any defect means the
	// handle and the disk disagree, and compaction must not guess.
	img, err := os.ReadFile(filepath.Join(l.dir, walFile))
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if len(img) < fileHeaderSize {
		return fmt.Errorf("persist: WAL lost its header mid-compaction (%d bytes)", len(img))
	}
	tailStart := -1
	tailRecords := 0
	folded := 0
	var prevSeq uint64
	for off := fileHeaderSize; off < len(img); {
		rec, n, derr := decodeRecord(img[off:], prevSeq)
		if derr != nil {
			return fmt.Errorf("persist: WAL defective under a live handle: %w", derr)
		}
		if tailStart < 0 && rec.Op != OpCreate && rec.Seq > captureSeq {
			tailStart = off
		}
		if tailStart >= 0 {
			tailRecords++
		} else if rec.Op != OpCreate {
			folded++
		}
		prevSeq = rec.Seq
		off += n
	}
	newImg := fileHeader(walMagic)
	records := 0
	if l.meta.validate() == nil {
		newImg = appendFrame(newImg, captureSeq, OpCreate, encodeCreate(l.meta))
		records = 1
	}
	if tailStart >= 0 {
		newImg = append(newImg, img[tailStart:]...)
	}
	if err := l.swapWAL(newImg, records+tailRecords, tailRecords); err != nil {
		return err
	}
	// swapWAL synced the full replacement image (tail included) in every
	// durable fsync mode, so nothing buffered remains.
	l.compactions++
	l.dirty = false
	l.publishStatsLocked()
	if hooks.CompactionDone != nil {
		hooks.CompactionDone(time.Since(start), folded)
	}
	return nil
}

// publishStatsLocked refreshes the lock-free stats snapshot. Callers hold
// l.mu or have exclusive access.
func (l *Log) publishStatsLocked() {
	l.statsCache.Store(&LogStats{
		WALRecords:  l.records,
		WALBytes:    l.size,
		Compactions: l.compactions,
		LastSeq:     l.seq,
	})
}

// Stats describes the live log for the daemon's stats endpoint. It reads the
// published snapshot without taking the log mutex, so a stats query never
// stalls behind an in-flight append fsync or compaction.
func (l *Log) Stats() LogStats {
	if s := l.statsCache.Load(); s != nil {
		return *s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.publishStatsLocked()
	return *l.statsCache.Load()
}

// LastSeq returns the newest appended sequence number, lock-free.
func (l *Log) LastSeq() uint64 { return l.Stats().LastSeq }

// Remove deletes the stream's durable state: the directory is first renamed
// to a tombstone (the atomic commit point — a crash leaves either a live
// stream or a tombstone the next Open sweeps) and then removed. The handle
// is dead afterwards.
func (l *Log) Remove() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.removed {
		return nil
	}
	l.removed = true
	if l.f != nil {
		l.syncMu.Lock()
		l.f.Close()
		l.f = nil
		l.syncMu.Unlock()
	}
	l.store.unregister(l.name)
	tomb := l.dir + tombSuffix
	os.RemoveAll(tomb) // leftovers of a previous interrupted delete
	if err := os.Rename(l.dir, tomb); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("persist: %w", err)
	}
	l.store.dirOpHook("rename", tomb)
	// The rename commits the delete: unsynced, a power loss can bring the
	// stream back, so the delete fails (the next Open sweeps the tombstone).
	if err := l.store.syncRoot(); err != nil {
		return err
	}
	if err := os.RemoveAll(tomb); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// SetAside closes the log and renames the stream directory to the ".failed"
// suffix: the name is freed, the bytes are kept for forensics. The daemon
// uses it when recovery fails above the persistence layer (metadata
// mismatch, replay failure). The handle is dead afterwards.
func (l *Log) SetAside() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.removed {
		return nil
	}
	l.removed = true
	if l.f != nil {
		l.syncMu.Lock()
		l.f.Close()
		l.f = nil
		l.syncMu.Unlock()
	}
	l.store.unregister(l.name)
	failed := l.dir + failedSuffix
	os.RemoveAll(failed)
	if err := os.Rename(l.dir, failed); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: %w", err)
	}
	l.store.dirOpHook("rename", failed)
	// Reported, but nothing acked depends on it: a lost rename only means the
	// next boot meets the directory again and recovers or sets it aside.
	return l.store.syncRoot()
}

// Close syncs and closes the log file without touching the durable state.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.store.unregister(l.name)
	if l.f == nil {
		return nil
	}
	var err error
	if l.dirty && l.store.opts.Fsync != FsyncNever {
		err = l.f.Sync()
	}
	l.syncMu.Lock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.syncMu.Unlock()
	return err
}

// Recovered is the durable state of one stream as found at boot.
type Recovered struct {
	// Name is the stream name (decoded from the directory).
	Name string
	// Meta is the journaled stream metadata; HaveMeta reports whether a
	// create record survived (it can be absent only if the WAL was lost
	// while a snapshot survived — the snapshot then carries the parameters).
	Meta     Meta
	HaveMeta bool
	// Snapshot is the newest valid snapshot's sketch payload (nil if none).
	Snapshot []byte
	// Tail is the records to replay on top of the snapshot, in order:
	// every batch/advance with a sequence number beyond the snapshot's.
	Tail []Record
	// Stats summarises what recovery found, for the stats endpoint.
	Stats RecoveryStats
	// Log is the live handle, positioned to append; nil when Err is set.
	Log *Log
	// Err is set when the stream could not be recovered (its directory has
	// been set aside with the ".failed" suffix, freeing the name).
	Err error
}

// Recover scans the store root and rebuilds the durable state of every
// stream: newest valid snapshot, valid WAL prefix (torn tails truncated in
// place), replay tail beyond the snapshot. Streams that cannot be recovered
// are reported with Err and their directories set aside as "<dir>.failed".
// Call once, before creating any new log.
func (s *Store) Recover() ([]*Recovered, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var out []*Recovered
	for _, e := range entries {
		if !e.IsDir() || strings.HasSuffix(e.Name(), failedSuffix) {
			continue
		}
		rec := s.recoverDir(e.Name())
		if rec.Err != nil {
			// Free the name but keep the bytes for forensics. Both errors
			// are ignored: a rename that did not happen or did not last only
			// means the next boot tries again.
			failed := filepath.Join(s.dir, e.Name()) + failedSuffix
			os.RemoveAll(failed)
			if os.Rename(filepath.Join(s.dir, e.Name()), failed) == nil {
				s.dirOpHook("rename", failed)
				s.syncRoot()
			}
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// recoverDir rebuilds one stream directory.
func (s *Store) recoverDir(entry string) *Recovered {
	hooks := &s.opts.Hooks
	var start time.Time
	if hooks.RecoveryDone != nil {
		start = time.Now()
	}
	rec := &Recovered{Name: entry}
	name, err := decodeName(entry)
	if err != nil {
		rec.Err = err
		return rec
	}
	rec.Name = name
	dir := filepath.Join(s.dir, entry)

	// Newest valid snapshot first: it fixes the replay horizon.
	var snapSeq uint64
	if img, err := os.ReadFile(filepath.Join(dir, snapFile)); err == nil {
		seq, payload, derr := decodeSnapshot(img)
		if derr != nil {
			rec.Err = fmt.Errorf("persist: stream %q: %w", name, derr)
			return rec
		}
		snapSeq = seq
		rec.Snapshot = append([]byte(nil), payload...)
		rec.Stats.SnapshotLoaded = true
		rec.Stats.SnapshotBytes = len(payload)
		rec.Stats.SnapshotSeq = seq
	} else if !os.IsNotExist(err) {
		rec.Err = fmt.Errorf("persist: stream %q: %w", name, err)
		return rec
	}

	walPath := filepath.Join(dir, walFile)
	img, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		rec.Err = fmt.Errorf("persist: stream %q: %w", name, err)
		return rec
	}
	res, err := DecodeWAL(img)
	if err != nil {
		rec.Err = fmt.Errorf("persist: stream %q: %w", name, err)
		return rec
	}
	if res.Torn != nil {
		rec.Stats.TornTail = true
		rec.Stats.TruncatedBytes = int64(len(img)) - res.ValidLen
		rec.Stats.TornDetail = res.Torn.Error()
		if hooks.TornTail != nil {
			hooks.TornTail(rec.Stats.TruncatedBytes)
		}
	}
	rec.Stats.WALRecords = len(res.Records)

	lastSeq := snapSeq
	for _, r := range res.Records {
		if r.Seq > lastSeq {
			lastSeq = r.Seq
		}
		if r.Op == OpCreate {
			rec.Meta = r.Meta
			rec.HaveMeta = true
			continue
		}
		if r.Seq <= snapSeq {
			continue // already folded into the snapshot
		}
		rec.Tail = append(rec.Tail, r)
		rec.Stats.PointsReplayed += int64(len(r.Points))
	}
	rec.Stats.RecordsReplayed = len(rec.Tail)
	if !rec.HaveMeta && rec.Snapshot == nil {
		rec.Err = fmt.Errorf("persist: stream %q: no snapshot and no create record — nothing to recover", name)
		return rec
	}

	// Materialise a consistent on-disk log before handing out the handle:
	// truncate the torn tail, or rebuild the file entirely when even the
	// header is missing.
	l := &Log{store: s, name: name, dir: dir, meta: rec.Meta, seq: lastSeq, snapSeq: snapSeq}
	if res.ValidLen < fileHeaderSize {
		// Even the header was lost (or never synced). Rebuild the file; when
		// the metadata only lives in the snapshot, the daemon re-derives it
		// from the sketch and calls AdoptMeta.
		if err := l.recreateWAL(); err != nil {
			l.abandon()
			rec.Err = err
			return rec
		}
	} else {
		if res.ValidLen < int64(len(img)) {
			if err := os.Truncate(walPath, res.ValidLen); err != nil {
				rec.Err = fmt.Errorf("persist: stream %q: %w", name, err)
				return rec
			}
		}
		f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			rec.Err = fmt.Errorf("persist: stream %q: %w", name, err)
			return rec
		}
		l.f = f
		l.size = res.ValidLen
		l.records = len(res.Records)
		l.since = len(rec.Tail)
		l.publishStatsLocked()
	}
	if err := s.register(l); err != nil {
		l.Close()
		rec.Err = err
		return rec
	}
	rec.Log = l
	if hooks.RecoveryDone != nil {
		hooks.RecoveryDone(name, time.Since(start), rec.Stats.WALRecords, rec.Stats.PointsReplayed)
	}
	return rec
}

// recreateWAL rebuilds a missing or headerless WAL in place (fresh header +
// create record at the current sequence number). Used by recovery; callers
// have exclusive access.
func (l *Log) recreateWAL() error {
	seq := l.seq
	if seq == 0 {
		seq = 1
		l.seq = 1
	}
	return l.resetWAL(seq)
}

// AdoptMeta fills in the metadata of a log recovered without a create record
// (snapshot-only recovery) and journals it so the next boot has it again.
func (l *Log) AdoptMeta(meta Meta) error {
	if err := meta.validate(); err != nil {
		return fmt.Errorf("persist: %v", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.removed {
		return ErrLogRemoved
	}
	l.meta = meta
	return l.resetWAL(l.seq)
}

// atomicWrite writes data to path via a temp file and rename, syncing the
// file and its directory when sync is true.
func atomicWrite(path string, data []byte, sync bool) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("persist: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if sync {
		// Unsynced, the rename may not survive a crash, and the WAL reset a
		// compaction makes next would then have dropped records that no
		// durable snapshot holds.
		if err := syncDir(filepath.Dir(path)); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
	}
	return nil
}

// syncRoot makes the store root's entries durable after a stream directory
// is created or renamed there: POSIX does not promise a new or renamed entry
// survives power loss until its parent directory is synced. Skipped under
// FsyncNever, like every other sync.
func (s *Store) syncRoot() error {
	if s.opts.Fsync == FsyncNever {
		return nil
	}
	if err := s.dirSync(s.dir); err != nil {
		return fmt.Errorf("persist: syncing the store root: %w", err)
	}
	s.dirOpHook("syncdir", s.dir)
	return nil
}

// syncDir fsyncs a directory, making the entries created, renamed or removed
// in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // opened only to sync: the Sync error is the one that counts
	return d.Sync()
}
