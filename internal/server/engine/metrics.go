package engine

import (
	"context"
	"strconv"
	"time"

	"coresetclustering/internal/obs"
	"coresetclustering/internal/persist"
)

// Metrics is the daemon's process-lifetime metric set, all under the
// kcenterd_ prefix; the HTTP transport registers its own request series on
// the same registry. Recording is wait-free (see internal/obs), so every
// counter below is safe to bump from the ingest hot path, the persistence
// layer's critical sections and concurrent transport handlers alike. A nil
// *Metrics disables instrumentation entirely — every method is nil-safe —
// which is also how the benchmark measures the uninstrumented baseline.
type Metrics struct {
	Reg   *obs.Registry
	Start time.Time

	// Stream lifecycle and query path.
	IngestPoints       *obs.Counter
	IngestBatches      *obs.Counter
	IngestBinaryBytes  *obs.Counter
	IngestBinaryPoints *obs.Counter
	EvictedBuckets     *obs.Counter
	EvictedPoints      *obs.Counter
	ViewPublishes      *obs.Counter
	CacheHits          *obs.Counter
	CacheMisses        *obs.Counter
	StreamsFailed      *obs.Counter

	// Persistence layer, fed by persist.Hooks.
	WALAppends       *obs.CounterVec // op
	WALAppendBytes   *obs.Counter
	WALAppendDur     *obs.Histogram
	WALFsyncs        *obs.Counter
	WALFsyncDur      *obs.Histogram
	WALGroupCommits  *obs.Counter
	WALGroupDepth    *obs.Histogram
	WALGroupDur      *obs.Histogram
	WALFlushErrors   *obs.Counter
	WALTornTails     *obs.Counter
	WALTruncatedB    *obs.Counter
	Compactions      *obs.Counter
	CompactionDur    *obs.Histogram
	CompactionFolded *obs.Counter
	Recoveries       *obs.Counter
	RecoveryDur      *obs.Histogram
	RecoveryPoints   *obs.Counter
}

func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		Reg:   r,
		Start: time.Now(),

		IngestPoints: r.Counter("kcenterd_ingest_points_total",
			"Points acknowledged across all streams."),
		IngestBatches: r.Counter("kcenterd_ingest_batches_total",
			"Ingest batches acknowledged across all streams."),
		IngestBinaryBytes: r.Counter("kcenterd_ingest_binary_bytes_total",
			"Request-body bytes of acknowledged binary (flat-frame) ingest batches."),
		IngestBinaryPoints: r.Counter("kcenterd_ingest_binary_points_total",
			"Points acknowledged via the binary ingest protocol."),
		EvictedBuckets: r.Counter("kcenterd_stream_evicted_buckets_total",
			"Window buckets evicted across all streams."),
		EvictedPoints: r.Counter("kcenterd_stream_evicted_points_total",
			"Stream points inside evicted window buckets."),
		ViewPublishes: r.Counter("kcenterd_view_publishes_total",
			"Immutable query views published (one per acknowledged mutation)."),
		CacheHits: r.Counter("kcenterd_extraction_cache_hits_total",
			"Centers queries answered from a view's memoised extraction."),
		CacheMisses: r.Counter("kcenterd_extraction_cache_misses_total",
			"Centers queries that ran a fresh extraction."),
		StreamsFailed: r.Counter("kcenterd_streams_failed_total",
			"Streams set aside after diverging from their journal."),

		WALAppends: r.CounterVec("kcenterd_wal_appends_total",
			"WAL records appended, by op.", "op"),
		WALAppendBytes: r.Counter("kcenterd_wal_append_bytes_total",
			"Framed bytes appended to WALs."),
		WALAppendDur: r.Histogram("kcenterd_wal_append_duration_seconds",
			"WAL append latency (fsync included under -fsync=always).",
			obs.DefDurationBuckets),
		WALFsyncs: r.Counter("kcenterd_wal_fsyncs_total",
			"Successful WAL fsyncs."),
		WALFsyncDur: r.Histogram("kcenterd_wal_fsync_duration_seconds",
			"WAL fsync latency.", obs.DefDurationBuckets),
		WALGroupCommits: r.Counter("kcenterd_wal_group_commits_total",
			"Group-commit cycles (one shared fsync pass each)."),
		WALGroupDepth: r.Histogram("kcenterd_wal_group_commit_depth",
			"Appends coalesced per group-commit cycle.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		WALGroupDur: r.Histogram("kcenterd_wal_group_commit_duration_seconds",
			"Group-commit cycle latency (fsync plus ack fan-out).",
			obs.DefDurationBuckets),
		WALFlushErrors: r.Counter("kcenterd_wal_flush_errors_total",
			"Background flusher fsync failures (the log stays dirty and is retried)."),
		WALTornTails: r.Counter("kcenterd_wal_torn_tails_total",
			"WALs found ending in a defective record during recovery."),
		WALTruncatedB: r.Counter("kcenterd_wal_truncated_bytes_total",
			"Bytes discarded when truncating torn WAL tails."),
		Compactions: r.Counter("kcenterd_compactions_total",
			"Snapshot compactions completed."),
		CompactionDur: r.Histogram("kcenterd_compaction_duration_seconds",
			"Snapshot compaction latency.", obs.DefDurationBuckets),
		CompactionFolded: r.Counter("kcenterd_compaction_folded_records_total",
			"Journal records folded into snapshots by compaction."),
		Recoveries: r.Counter("kcenterd_recoveries_total",
			"Streams whose durable state was decoded at boot."),
		RecoveryDur: r.Histogram("kcenterd_recovery_duration_seconds",
			"Boot-time per-stream decode latency (snapshot + WAL scan).",
			obs.DefDurationBuckets),
		RecoveryPoints: r.Counter("kcenterd_recovery_points_replayed_total",
			"Points replayed from WAL tails at boot."),
	}
}

// persistHooks adapts the metric set to the persistence layer's
// instrumentation seam. A nil receiver returns the zero Hooks, leaving the
// persistence hot paths on their uninstrumented branch.
func (m *Metrics) persistHooks() persist.Hooks {
	if m == nil {
		return persist.Hooks{}
	}
	return persist.Hooks{
		AppendDone: func(op persist.Op, bytes int, d time.Duration) {
			m.WALAppends.With(op.String()).Add(1)
			m.WALAppendBytes.Add(int64(bytes))
			m.WALAppendDur.ObserveDuration(d)
		},
		FsyncDone: func(d time.Duration) {
			m.WALFsyncs.Add(1)
			m.WALFsyncDur.ObserveDuration(d)
		},
		GroupCommitDone: func(groupSize int, d time.Duration) {
			m.WALGroupCommits.Add(1)
			m.WALGroupDepth.Observe(float64(groupSize))
			m.WALGroupDur.ObserveDuration(d)
		},
		FlushError: func(error) { m.WALFlushErrors.Add(1) },
		CompactionDone: func(d time.Duration, folded int) {
			m.Compactions.Add(1)
			m.CompactionDur.ObserveDuration(d)
			m.CompactionFolded.Add(int64(folded))
		},
		TornTail: func(truncated int64) {
			m.WALTornTails.Add(1)
			m.WALTruncatedB.Add(truncated)
		},
		RecoveryDone: func(name string, d time.Duration, records int, points int64) {
			m.Recoveries.Add(1)
			m.RecoveryDur.ObserveDuration(d)
			m.RecoveryPoints.Add(points)
		},
	}
}

// PersistHooks is the full instrumentation seam handed to the persistence
// layer: the metric set's hooks plus, when tracing is enabled, the
// trace-attribution callbacks (group-commit wait as a span on the waiting
// request's trace, flusher cycles as sampled background traces).
func (e *Engine) PersistHooks() persist.Hooks {
	hooks := e.Metrics.persistHooks()
	if t := e.Tracer; t != nil {
		hooks.AppendWait = func(ctx context.Context, op persist.Op, wait time.Duration) {
			obs.RecordSpan(ctx, "wal.wait", wait, "op", op.String())
		}
		hooks.FlushCycleDone = func(d time.Duration, flushed int) {
			t.RecordBackground("wal.flush", d, "logs", strconv.Itoa(flushed))
		}
	}
	return hooks
}
