// Package persist is the per-stream durability engine of the daemon: a
// write-ahead log of ingest batches and clock advances, plus snapshot
// compaction built on the sketch codecs, giving kcenterd crash-safe streams.
//
// The design is the standard log+checkpoint recipe. Every mutation of a
// stream is first appended to its WAL as a length-prefixed, CRC-checked,
// sequence-numbered record; periodically the stream's complete state — which
// the sketch subsystem already serializes compactly (KCSK/KCWN) — is written
// as a snapshot and the log is reset. Recovery loads the newest valid
// snapshot and replays the log records with sequence numbers beyond it, in
// order, reproducing the pre-crash state exactly (the streams are
// deterministic, so a recovered stream's re-snapshot is byte-identical to an
// uninterrupted run's).
//
// On-disk layout, one directory per stream under the store root (directory
// names are the URL-safe base64 of the stream name):
//
//	<root>/<name>/wal       write-ahead log
//	<root>/<name>/snap      newest snapshot (atomically renamed into place)
//	<root>/<name>/*.tmp     in-flight writes (ignored and removed on open)
//	<root>/<name>.tomb      deleted stream mid-removal (removed on open)
//	<root>/<name>.failed    unrecoverable stream, set aside for forensics
//
// WAL wire format (all integers big-endian):
//
//	offset  size  field
//	0       4     magic "KCWL"
//	4       2     version (currently 1)
//	6       2     reserved (0)
//	8       ...   records, each:
//	                4  frame length n (covers seq+op+payload, so n >= 9)
//	                4  CRC-32C of the n frame bytes
//	                8  sequence number (strictly increasing within the file)
//	                1  op (1 = create, 2 = batch, 3 = advance)
//	                .. payload (see wal.go)
//
// Snapshot wire format:
//
//	offset  size  field
//	0       4     magic "KCSN"
//	4       2     version (currently 1)
//	6       2     reserved (0)
//	8       8     lastSeq: the WAL sequence number the snapshot includes
//	16      4     payload length
//	20      4     CRC-32C of the payload
//	24      ...   payload: a complete KCSK or KCWN sketch
//
// Decoding is strict — every field is validated, readers never panic (there
// is a fuzz target), and allocations are bounded by the input size — with one
// deliberate exception: a defect at a record boundary of the WAL (torn write,
// CRC mismatch, bad payload) is NOT an error. The reader returns the records
// of the valid prefix plus the prefix length, and recovery truncates the file
// there: a crash mid-append must never take down recovery of the records
// that were already durable. Defects that precede every record (bad magic,
// unknown version) are hard errors, because nothing after them can be
// trusted.
//
// Durability depends on the fsync mode: FsyncAlways syncs every append before
// it is acknowledged (an acknowledged write survives power loss), coalescing
// concurrent appends into shared group-commit fsyncs; FsyncInterval syncs
// dirty logs on a background ticker (a crash loses at most the last
// interval); FsyncNever leaves syncing to the OS (a kill still loses nothing,
// power loss may lose or tear the tail — which recovery tolerates by
// truncating it). One syncer goroutine per store runs the group commits or
// the ticker; FsyncNever runs none. In both syncing modes the store root is
// synced after every stream directory it creates or renames, so a created
// stream cannot vanish, nor a deleted one return, after power loss. Snapshot
// compaction always uses write-to-temp + fsync + rename, so a valid snapshot
// is replaced atomically and records already folded into a snapshot are
// skipped on replay by sequence number even if the log reset behind it did
// not complete.
package persist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"coresetclustering/internal/metric"
)

// Typed errors of the persistence layer. WAL and snapshot readers report
// malformed input exclusively through these (wrapped with detail), so callers
// can branch with errors.Is.
var (
	// ErrBadMagic: the file does not start with the expected magic — it is
	// not a WAL (or snapshot) at all. Hard error: nothing is recovered.
	ErrBadMagic = errors.New("persist: bad magic")
	// ErrUnsupportedVersion: the file was written by an incompatible version
	// of this package. Hard error.
	ErrUnsupportedVersion = errors.New("persist: unsupported version")
	// ErrCorruptRecord describes the first defective WAL record — the reason
	// the valid prefix ends where it does. It is reported as DecodeResult.Torn
	// (recovery truncates and continues), never as a decode failure.
	ErrCorruptRecord = errors.New("persist: corrupt record")
	// ErrSnapshotCorrupt: the snapshot file is structurally invalid
	// (truncated, CRC mismatch, trailing bytes).
	ErrSnapshotCorrupt = errors.New("persist: corrupt snapshot")
	// ErrLogRemoved: the stream's log was deleted; the handle is dead.
	ErrLogRemoved = errors.New("persist: log removed")
)

// FsyncMode selects when appends are flushed to stable storage.
type FsyncMode int

const (
	// FsyncAlways syncs before every append is acknowledged; concurrent
	// appends share one group-commit fsync.
	FsyncAlways FsyncMode = iota
	// FsyncInterval syncs dirty logs on a background ticker.
	FsyncInterval
	// FsyncNever never calls fsync; the OS flushes at its leisure.
	FsyncNever
)

// ParseFsyncMode parses the -fsync flag values "always", "interval", "never".
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync mode %q (want always, interval or never)", s)
}

// String returns the flag spelling of the mode.
func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// Op is the type tag of a WAL record.
type Op uint8

const (
	// OpCreate records the stream's creation parameters. It is the first
	// record of every WAL and is re-written on compaction so the metadata
	// survives log resets.
	OpCreate Op = 1
	// OpBatch records one acknowledged ingest batch (points, and for window
	// streams optionally one timestamp per point).
	OpBatch Op = 2
	// OpAdvance records a clock advance of a window stream.
	OpAdvance Op = 3
)

func (o Op) valid() bool { return o == OpCreate || o == OpBatch || o == OpAdvance }

// String returns a diagnostic name for the op.
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpBatch:
		return "batch"
	case OpAdvance:
		return "advance"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Meta is the stream metadata journaled by the create record: everything the
// daemon needs to rebuild an empty stream, and what recovery verifies the
// snapshot against.
type Meta struct {
	// K and Z are the query parameters (centers, tolerated outliers).
	K, Z int
	// Budget is the coreset budget in points.
	Budget int
	// Space is the registered metric-space name.
	Space string
	// WindowSize and WindowDuration are the sliding-window bounds
	// (0 = none; both 0 means an insertion-only stream).
	WindowSize, WindowDuration int64
}

func (m *Meta) validate() error {
	if m.K < 1 {
		return fmt.Errorf("k must be positive, got %d", m.K)
	}
	if m.Z < 0 {
		return fmt.Errorf("negative z %d", m.Z)
	}
	if m.Budget < 1 {
		return fmt.Errorf("budget must be positive, got %d", m.Budget)
	}
	if m.Space == "" {
		return errors.New("empty space name")
	}
	if m.WindowSize < 0 || m.WindowDuration < 0 {
		return fmt.Errorf("negative window bound (size=%d duration=%d)", m.WindowSize, m.WindowDuration)
	}
	return nil
}

// Record is the decoded form of one WAL record.
type Record struct {
	// Seq is the record's sequence number, strictly increasing within a WAL.
	Seq uint64
	// Op discriminates the payload fields below.
	Op Op
	// Meta is the stream metadata (OpCreate only).
	Meta Meta
	// Points is the ingested batch (OpBatch only).
	Points metric.Dataset
	// Timestamps optionally carries one non-negative, non-decreasing int64
	// per point (OpBatch on window streams; nil when the batch was untimed).
	Timestamps []int64
	// AdvanceTo is the clock-advance target (OpAdvance only).
	AdvanceTo int64
}

// Hooks are optional instrumentation callbacks fired by the persistence
// layer, the seam the daemon's metrics subsystem plugs into. Nil fields cost
// one predictable branch on the paths they would instrument; non-nil fields
// additionally pay the clock reads that time the operation. Callbacks must be
// safe for concurrent use (appends, the syncer goroutine, compactions and
// recovery may all fire them) and must return quickly: they run inside the
// log's critical section, so a slow callback stalls the ingest path it is
// meant to observe.
type Hooks struct {
	// AppendDone fires after each successful WAL append with the framed
	// record size in bytes and the total append latency (under FsyncAlways
	// this includes the fsync; FsyncDone then also fires separately).
	AppendDone func(op Op, bytes int, d time.Duration)
	// FsyncDone fires after each successful fsync of a log file — per log
	// per commit cycle under FsyncAlways, per dirty log per tick under
	// FsyncInterval.
	FsyncDone func(d time.Duration)
	// FlushError fires when the interval flush's fsync fails (the log
	// stays dirty and is retried next tick; appends are NOT failed, so this
	// is the only signal).
	FlushError func(err error)
	// CompactionDone fires after a successful Compact/CompactAt with the
	// total compaction latency and the number of journaled records folded
	// into the snapshot (records carried over into the new WAL tail are not
	// counted).
	CompactionDone func(d time.Duration, foldedRecords int)
	// GroupCommitDone fires after each group-commit cycle with the number of
	// appends the covering fsync acknowledged together (the group depth) and
	// the latency of the cycle (fsync plus fan-out). Only fired under
	// FsyncAlways.
	GroupCommitDone func(groupSize int, d time.Duration)
	// AppendWait fires after a group-commit waiter is released via
	// (*Pending).WaitCtx, with the waiter's context and its enqueue→ack
	// latency (frame written to fsync acknowledged). Unlike the other
	// callbacks it runs on the waiter's own goroutine, outside any log
	// lock, and receives the caller's context so per-request tracing can
	// attribute the wait to the request that paid it. Only fired under
	// FsyncAlways, and never when Wait (context-free) is used.
	AppendWait func(ctx context.Context, op Op, wait time.Duration)
	// FlushCycleDone fires after each background flush tick that synced at
	// least one dirty log, with the tick's total latency and the number of
	// logs flushed. Only fired under FsyncInterval.
	FlushCycleDone func(d time.Duration, flushed int)
	// TornTail fires during recovery when a WAL ends in a defective record,
	// with the number of bytes truncated.
	TornTail func(truncatedBytes int64)
	// RecoveryDone fires after one stream's durable state has been decoded at
	// boot (snapshot + WAL scan; replay happens in the caller), with the
	// decode latency, the valid record count and the points awaiting replay.
	RecoveryDone func(name string, d time.Duration, records int, points int64)
}

// Options configures a Store.
type Options struct {
	// Fsync is the append flush policy (default FsyncAlways). Under
	// FsyncAlways each append writes its frame immediately (serialised per
	// log, so sequence order is untouched) and then waits for the committer,
	// whose next fsync of that log covers every frame written before it —
	// one disk flush acknowledges the whole group.
	Fsync FsyncMode
	// FsyncInterval is the flush period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// CompactEvery is the number of appended records after which
	// (*Log).ShouldCompact reports true (default 1024; negative disables).
	CompactEvery int
	// Deprecated: ignored; group commit is the only FsyncAlways path.
	GroupCommit bool
	// Hooks are optional instrumentation callbacks (see Hooks).
	Hooks Hooks
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 1024
	}
	return o
}

// LogStats describes the live WAL of one stream, for the daemon's stats
// endpoint.
type LogStats struct {
	// WALRecords and WALBytes measure the current log file (header included
	// in bytes; the re-written create record included in records).
	WALRecords int   `json:"walRecords"`
	WALBytes   int64 `json:"walBytes"`
	// Compactions counts snapshot compactions since the log was opened.
	Compactions int64 `json:"compactions"`
	// LastSeq is the sequence number of the newest record.
	LastSeq uint64 `json:"lastSeq"`
}

// RecoveryStats describes what boot-time recovery did for one stream.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a valid snapshot was found;
	// SnapshotBytes and SnapshotSeq describe it.
	SnapshotLoaded bool   `json:"snapshotLoaded"`
	SnapshotBytes  int    `json:"snapshotBytes,omitempty"`
	SnapshotSeq    uint64 `json:"snapshotSeq,omitempty"`
	// WALRecords is the number of valid records found in the log;
	// RecordsReplayed (<= WALRecords) is how many were beyond the snapshot
	// and re-applied, covering PointsReplayed points.
	WALRecords      int   `json:"walRecords"`
	RecordsReplayed int   `json:"recordsReplayed"`
	PointsReplayed  int64 `json:"pointsReplayed"`
	// TornTail reports that the log ended in a defective record;
	// TruncatedBytes were discarded (the torn tail only — never a record
	// that was once acknowledged as fully written).
	TornTail       bool   `json:"tornTail"`
	TruncatedBytes int64  `json:"truncatedBytes,omitempty"`
	TornDetail     string `json:"tornDetail,omitempty"`
}
