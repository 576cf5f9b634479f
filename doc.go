// Package kcenter is a coreset-based library for the k-center clustering
// problem, with and without outliers, in the sequential, MapReduce-style
// parallel, and streaming settings.
//
// It reproduces the algorithms of
//
//	M. Ceccarello, A. Pietracaprina, G. Pucci:
//	"Solving k-center Clustering (with Outliers) in MapReduce and Streaming,
//	almost as Accurately as Sequentially", PVLDB 12(7), 2019.
//
// # Overview
//
// The k-center problem asks for k centers minimising the maximum distance of
// any point to its closest center; the variant with z outliers allows the z
// farthest points to be discarded. Both are NP-hard; the best polynomial-time
// sequential approximations are 2 (Gonzalez) and 3 (Charikar et al.)
// respectively. The algorithms implemented here achieve 2+eps and 3+eps in
// two MapReduce rounds (or one streaming pass for the outlier variant) by
// building composable coresets with an incremental greedy: selecting more
// than k points per partition makes the union of the coresets an arbitrarily
// good summary of the input, at a space cost governed by the doubling
// dimension of the data.
//
// # Entry points
//
//   - Cluster: k-center on an in-memory dataset, parallelised over
//     goroutine-backed partitions (the MapReduce algorithm of the paper).
//   - ClusterWithOutliers: k-center with z outliers, deterministic or
//     randomized partitioning. Its second round — also the query of every
//     z > 0 stream — is a radius search on the coreset union T: O(log|T|)
//     probes of O(|T|^2) each whatever k is, after ordering the candidate
//     radii in time linear in their number (see internal/outliers).
//   - Gonzalez: the classic sequential 2-approximation (GMM), exposed as a
//     baseline and building block.
//   - NewStreamingKCenter / NewStreamingOutliers: one-pass streaming
//     algorithms with a fixed working-memory budget.
//   - NewWindowedKCenter / NewWindowedOutliers: sliding-window streaming —
//     summarise only the last W points and/or the last D time units instead
//     of the whole stream (see below). All four streaming types are one
//     implementation (internal/clusterer) parameterised by the kind of
//     extraction and the presence of a window; they share one method set,
//     and Observe refuses every point the admission rule (below) refuses
//     before any state changes.
//   - Snapshot / RestoreStreamingKCenter / RestoreStreamingOutliers /
//     MergeSketches: durable, mergeable sketches of streaming state for
//     sharded deployments (see below).
//
// # Points are values
//
// A streaming clusterer retains the points it observes by reference and never
// writes them: a point is immutable from the moment Observe (ObserveAll,
// ObserveAt) accepts it, and the caller must not modify it afterwards.
// Everything inside builds on that — Clone, Snapshot, the sliding window's
// query unions and the sketch merge chain copy only (point, weight) headers
// and share the coordinate arrays, so their cost does not grow with the
// dimension and a query allocates a constant number of objects. One step
// copies coordinates: when a window coalesce reduces two buckets to the
// budget, the survivors' rows go into one block the new bucket owns. A window
// therefore keeps alive the arrays of only its most recent points (at most
// chi·base·15 + base of them at the default base), not every array its span
// arrived in. Centers is where points leave the clusterer: it returns copies,
// which are the caller's to keep or change.
//
// # Admission
//
// One rule, written once (internal/streaming) and asked by every layer that
// admits points — Observe, the window clock, sketch and state restores, the
// batch entry points Cluster, ClusterWithOutliers and Gonzalez, the
// evaluators Radius and RadiusExcluding (points and centers), the daemon's
// ingest front end and engine — decides what is admitted. A point has 1 to
// 2^20 coordinates, the stream's (or the batch's) dimension, and each within
// ±2^500 (about 3.3e150: the largest power of two at which no built-in
// distance overflows at that dimension); a timestamp is non-negative and not
// behind the stream's clock. The daemon's rule follows: every rejection
// happens before the journal, and everything admitted terminates. Its engine
// admits each batch or advance against the stream's own dimension, flavour
// and clock under the stream mutex, before journaling, and maps the rule's
// sentinels to the (unchanged) wire codes in one switch:
//
//	ErrEmptyBatch                                  empty_batch
//	metric.ErrDimensionMismatch                    dimension_mismatch
//	clusterer.ErrNotWindowed                       not_windowed
//	ErrTimestampCount, ErrNegativeTimestamp,       invalid_timestamps
//	ErrTimestampOrder
//	any other refusal (NaN, ±Inf, beyond ±2^500)   invalid_point
//
// A custom distance (WithDistance) has no bound; when it answers a
// non-finite distance, Observe fails and leaves the clusterer as it was.
//
// # Metric spaces: Space vs Distance
//
// Distance evaluations dominate every algorithm here, so the metric is a
// first-class object: a Space bundles a named distance function with batched
// block kernels and a comparison-domain surrogate. The surrogate is a
// monotone transform of the true distance that is cheaper to evaluate —
// squared Euclidean drops the square root, the angular and cosine spaces
// drop the arccos and reuse the query point's norm across a whole block —
// and every argmin, max and order-statistic reduction runs in the surrogate
// domain. The conversion back to a true distance is applied once per
// REPORTED value (a radius, a nearest-neighbour distance), never once per
// evaluation. On amd64 hardware with AVX the Euclidean kernels additionally
// take a vectorised fast path that is bit-identical to the pure-Go kernels
// by construction: the four SIMD lanes of each row's accumulator are exactly
// the four accumulator lanes of the canonical summation order, four rows are
// evaluated per pass so that each load of the query serves all four, and the
// four rows' lanes are combined in one transposed reduction whose every
// addition is the scalar (s0+s1)+(s2+s3) of its row. A run built with the
// purego tag takes the pure-Go kernels only and must produce the same bits.
//
// WithSpace selects a space explicitly (EuclideanSpace, ManhattanSpace,
// ChebyshevSpace, AngularSpace, CosineSpace). Inside the library the Space is
// the only currency; a Distance survives only at the public adapter.
// WithDistance resolves a function to its space once: a built-in function to
// its native space, a custom one to the SpaceFromDistance adapter, which
// calls it once per evaluation with the identity surrogate — no caller
// breaks, custom metrics lose nothing. Named spaces are what the sketch codec
// serializes, so restoring a sketch resolves the full batched-kernel
// substrate, not just a scalar function.
//
// Datasets can live in contiguous flat storage (one backing buffer, zero
// per-point allocations): cmd/datagen -layout flat emits the binary
// flat-buffer format, and the dataset loaders auto-detect it (CSV parsing is
// the unchanged fallback).
//
// # The greedy, pruned exactly
//
// Every algorithm above is built on the greedy farthest-point loop (GMM). Its
// textbook form evaluates each new center against all n points; the
// implementation (internal/gmm) proves most of those evaluations unnecessary
// with the triangle inequality — a center c cannot capture a point p owned
// by b when d(c,b) >= 2*d(p,b), nor any point of b's cluster when
// d(c,b) >= 2*(cluster radius) — and evaluates only the rest, with the same
// batched kernel, so centers, radii and assignments are bit-identical to the
// textbook loop. Runs start on the textbook loop and switch once, by a rule
// that reads only the data (a sampled probe at geometrically spaced center
// counts), when at least half the points are provably skippable. The centers
// selected by then become pivots and every later center joins the group of
// its nearest pivot: a new center is evaluated against the pivots only, and a
// group whose members the triangle inequality keeps too far away for any of
// their clusters to lose a point is skipped without visiting them, so a round
// costs in proportion to what the new center can capture, not to the number
// of centers. The Euclidean, Manhattan, Chebyshev and Angular spaces opt in
// through metric.Pruner; CosineSpace (no triangle inequality) and custom
// distance functions keep exactly k*n evaluations. RunStats.DistanceEvaluations
// reports what a run spent.
//
// Cluster and ClusterWithOutliers end with one pass over the whole input that
// yields the radius and the assignment. On the same spaces it is hinted: the
// first round told every point its proxy and the second told every proxy its
// center, so each point evaluates that center first and then only the centers
// a table of center-to-center distances cannot rule out — everything left out
// is provably strictly farther, so the result is the dense scan's, bit for
// bit, for a few evaluations per point instead of k.
// RunStats.FinalPassEvaluations reports what the pass spent; Radius and
// RadiusExcluding, which have no hint, scan densely.
//
// The streaming algorithms' update rule compares each observed point with
// the current coreset centers. On the same spaces (the Angular chain
// declines, so not there) it answers from a pivot index once plain scans
// since the centers last changed have cost about k^2 evaluations: about
// 2*sqrt(k) pivots chosen farthest-first, every other center in the group of
// its nearest pivot, and per center and pivot a threshold below which the
// whole group is provably strictly farther than that center. A point is
// evaluated against the pivots, the nearest pivot's group and only the
// groups its current best center cannot rule out, so the nearest center —
// and every coreset, snapshot and answer built on it — is the scan's, bit
// for bit. Merge rounds discard the index, clones and snapshots never carry
// it, and it is dropped when it stops saving half the evaluations.
//
// # Parallelism and determinism
//
// All distance-dominated passes (the Gonzalez farthest-point scans,
// nearest-center assignment, radius computation, and the outlier solver's
// distance evaluations) run on a shared parallel distance engine
// (internal/metric) that chunks the point set across a bounded set of worker
// goroutines — each chunk driven by the space's batched kernels — falling
// back to sequential execution below a size cutoff. The WithWorkers option
// controls the degree:
// 0 (the default) uses one worker per CPU, 1 forces the fully sequential
// path.
//
// The engine honours a strict determinism contract: centers, radii and
// assignments are bit-identical for every worker count. Parallelism is
// applied only across independent points, ties break to the lowest index,
// and per-chunk reductions are combined in chunk order — so WithWorkers
// trades wall-clock time for CPUs without ever changing results. The
// surrogate domain preserves the contract: each surrogate is computed by
// exactly the floating-point operations that prefix the true distance, and
// the final conversion is the exact remaining operation (monotone and
// correctly rounded), so reductions commute with it bit for bit. For
// Euclidean, Manhattan and Chebyshev the native space and the
// SpaceFromDistance adapter over the same function return bit-identical
// results, enforced by cross-path golden tests. This is on top of WithParallelism, which controls how many
// MapReduce partitions are processed concurrently; the two compose (the
// engine's worker budget is divided among concurrently running partitions).
// One obligation transfers to callers: a custom WithDistance function (or
// Space implementation) is invoked from multiple goroutines whenever more
// than one worker is in play, so it must be safe for concurrent use (the
// built-ins are).
//
// # Sketches and sharding
//
// The streaming clusterers expose their complete state as a sketch: a
// versioned, self-describing binary value holding the doubling algorithm's
// weighted coreset, its lower bound phi, the processed count, the query
// parameters (k, z, epsHat) and the identity of the distance function.
// Snapshot captures one, RestoreStreamingKCenter / RestoreStreamingOutliers
// revive one as a fully live stream (it can keep observing and be
// snapshotted again), and MergeSketches unions sketches built on independent
// shards, re-running the doubling reduction so the merged sketch is back
// under the shared budget — the paper's composable-coreset property as an
// operation on durable values. InspectSketch reports a sketch's metadata
// without restoring it.
//
// Semantics and obligations:
//
//   - Snapshot is a pure read of stream state; observation may continue
//     afterwards. Only built-in distances are serializable — a custom
//     WithDistance function yields ErrSketchUnknownDistance, because a
//     closure cannot be reconstructed on another machine.
//   - Clone is Snapshot's in-process sibling: an O(budget) copy of the
//     clusterer's bounded state — its (point, weight) headers; coordinates
//     are immutable and shared, and windowed clones share their immutable
//     sealed buckets too. The clone is a fully live,
//     snapshot-isolated stream — ingest into either side never shows
//     through to the other, and feeding both the same suffix reproduces
//     bit-identical states (the determinism contract extends to clones).
//     Unlike Snapshot, Clone works for custom WithDistance functions.
//   - MergeSketches requires all sketches to agree on kind, distance, k, z,
//     epsHat, budget and dimensionality (ErrSketchIncompatible otherwise).
//     The merge is fully sequential, independent of worker counts, and fixed
//     by argument order; its weights keep accounting for every original
//     point exactly once. Merging does not commute bit-for-bit (center
//     identity may differ with order), but every order satisfies the same
//     quality guarantee.
//   - Decoding validates strictly: truncation, bad magic, unknown versions,
//     kinds or distances, NaN/Inf values, weight and budget inconsistencies,
//     and trailing bytes are rejected with the typed ErrSketch* errors, and
//     the codec never panics on arbitrary input.
//
// Because a sketch is a deterministic function of the stream (and recovery
// is byte-identical), its bytes identify its state: the kcenterd daemon
// serves every snapshot under a strong ETag — 128 bits of the bytes'
// SHA-256, hashed once per pulled version — and answers a matching
// If-None-Match with 304 Not Modified. The router role builds round 2 on
// that: it keeps each shard's last snapshot with its tag, pulls
// conditionally, and re-runs MergeSketches and extraction only when some
// shard's bytes changed, merging fresh and kept snapshots in shard order so
// the result is the one an unconditional pull of every shard would give; a
// shard that restarts into the same bytes is revalidated, not re-pulled.
//
// # Sliding windows
//
// The insertion-only streams never forget: once observed, a point influences
// the coreset forever, which is wrong for monitoring-style workloads where
// only recent data matters. NewWindowedKCenter and NewWindowedOutliers
// summarise a sliding window instead — the last WithWindowSize points, the
// points of the last WithWindowDuration time units, or the intersection when
// both are set.
//
// A windowed clusterer is the insertion-only clusterer with a different
// state behind it (internal/clusterer holds exactly one of the two):
// instead of one doubling coreset, the stream is decomposed (internal/window)
// into a ring of timestamped buckets, each an independent doubling coreset of at most
// budget points over a contiguous stream slice. Buckets coalesce in the
// exponential-histogram discipline — sizes grow geometrically towards the
// past, at most a constant number per size class — so the ring holds O(log
// W) buckets and working memory is O(budget * log W) (WorkingMemory reports
// it; the bound is asserted in tests). Coalescing unions the two buckets'
// weighted coresets and, only when over budget, reduces them with the
// paper's composable-coreset move (a weighted farthest-point selection,
// folding dropped weights into the nearest survivor) at an ADDITIVE coverage
// cost per level. Whole buckets are evicted as their newest point ages out
// of the window, so the live summary covers at least the requested window
// and overshoots it by at most the span of the oldest live bucket (a 1/chi
// fraction of the window). Centers runs extraction directly on the weighted
// union of the live bucket coresets — the paper's round-2 pattern — and its
// radius over exactly the live window stays within (2+eps) of a from-scratch
// Gonzalez recompute (enforced by a randomized-schedule property test).
//
// Time is always explicit: ObserveAt and Advance take non-negative,
// non-decreasing int64 ticks in caller-defined units, and the library never
// reads a clock, so eviction, coalescing and queries are pure functions of
// the observed stream. The determinism contract extends unchanged — results
// are bit-identical across worker counts and across a Snapshot -> Restore
// round-trip. Windowed snapshots use their own codec (magic KCWN): the
// window geometry, every bucket's boundaries, and a nested KCSK payload per
// bucket, with the same strict validation, typed errors and fuzz guarantees
// as the insertion-only format. Window sketches restore only as windowed
// streams and cannot be merged (each one summarises a different time range).
//
// cmd/kcenterd serves this subsystem over HTTP: named streams with batch
// ingest (POST /streams/{name}/points), extraction (GET
// /streams/{name}/centers), introspection (GET /streams/{name}/stats),
// durable snapshots (GET /streams/{name}/snapshot), revival (POST
// /streams/{name}/restore) and coordinator-side merging (POST /merge).
// Window streams are created with ?window=N and/or ?windowDur=D on first
// ingest, accept an optional per-point "timestamps" array, and evict
// automatically as batches arrive. Error responses carry stable
// machine-readable codes, and a batch is admitted in full (see Admission)
// before it is journaled or applied. The streaming clusterers are not safe
// for concurrent use, so
// writes serialise through the owning stream's mutex: concurrent ingest
// into one stream is safe (batches interleave at batch granularity) and
// distinct streams ingest in parallel.
//
// Reads never take that mutex. After every successful mutation the daemon
// publishes an immutable query view — a Clone of the clusterer plus a
// monotonic version counter — with an atomic pointer swap, and the stats,
// centers and snapshot handlers answer from the latest published view:
// snapshot isolation (a read observes a whole number of batches, never a
// torn mid-batch state), wait-free behind any amount of ingest, WAL fsync
// or background compaction. Centers extraction and snapshot bytes are
// memoised per view, so repeated queries at an unchanged version replay
// cached, byte-identical answers (GET /stats reports the version and the
// cache hit/miss counters). Handlers added to the daemon must preserve this
// discipline: mutate under the stream mutex and publish a fresh view; read
// only from published views. Shutdown is graceful: in-flight requests
// drain before the process exits.
//
// # Durability
//
// The sketches are exactly the compact state a long-running service must
// not lose, and internal/persist turns them into a per-stream durability
// engine for the daemon (kcenterd -persist-dir): the standard
// log+checkpoint recipe.
//
//   - Every stream mutation — creation, ingest batch, clock advance — is
//     appended to a per-stream write-ahead log (magic KCWL) before it is
//     acknowledged: length-prefixed, CRC-32C-checked, sequence-numbered
//     records with typed payloads, decoded strictly (the reader never
//     panics; FuzzWALDecode enforces it).
//   - Periodically the stream's complete state is compacted into a snapshot
//     via the existing Snapshot()/KCSK/KCWN codecs — written to a temp
//     file, fsynced, atomically renamed (magic KCSN, carrying the WAL
//     sequence number it includes) — and the log is rewritten. The daemon
//     runs this off the ingest lock: it serializes an already-published
//     query view and folds the journal at that view's sequence number,
//     preserving any concurrently appended records as the new log tail, so
//     ingest never stalls behind compaction I/O.
//   - On boot, recovery loads the newest valid snapshot, verifies it
//     against the journaled stream metadata (space, k/z, budget, window
//     geometry), replays the log tail beyond the snapshot's sequence
//     number, and tolerates a torn tail by truncating at the first corrupt
//     record: a crash mid-append never takes down the records that were
//     already durable.
//
// The determinism contract is what makes recovery exact rather than
// approximate: replaying the journaled batches over the restored snapshot
// reproduces the pre-crash state bit for bit, so a recovered stream's
// re-snapshot is byte-identical to an uninterrupted run's (enforced by a
// kill-and-recover test that SIGKILLs a real daemon process at random batch
// boundaries). The -fsync flag trades durability for throughput: "always"
// fsyncs before every acknowledgement, "interval" bounds the loss window to
// -fsync-interval, and "never" survives SIGKILL but not power loss. See the
// README's Durability section for the operational details and the daemon's
// typed error-code table.
//
// # Observability
//
// internal/obs is a zero-dependency observability core: wait-free metric
// primitives (atomic counters, gauges and fixed-bucket latency histograms
// with p50/p99 snapshots, rendered in Prometheus text exposition format);
// logs are log/slog text records tagged with per-request IDs. The daemon
// threads it through every layer — per-route HTTP counters and
// latency histograms with slow-request logging (-slow-request), WAL
// append/fsync/compaction/recovery timings via persist.Hooks, and stream
// ingest/eviction/view-publish/cache counters — and serves the result on
// GET /metrics, with per-stream gauges rendered from published query views
// (never the ingest mutex) under an -obs-max-streams cardinality cap.
// internal/obs also carries a span tracer: every daemon request is recorded
// as a span tree (ingest decode/validate/journal/group-commit wait/apply/
// publish, query extraction with cache attribution, plus background
// compaction/recovery/flush traces), joined to inbound W3C traceparent
// headers and echoed as X-Trace-ID. Retention is deterministic 1-in-N head
// sampling (-trace-sample) with forced capture of slow and 5xx requests
// into a bounded ring (-trace-buffer), browsable as JSON span trees at
// /debug/traces on the debug listener; the slow-request warn log carries
// the trace ID and per-stage breakdown inline.
// Profiling (net/http/pprof, expvar) and the trace surface are opt-in on a
// separate -debug-addr listener so they never ride the ingest port. CI
// keeps instrumentation honest: a smoke job boots a daemon, fails on
// missing series, and walks a traced request end to end, and the
// BenchmarkGateIngestMetrics/Tracing gates hold the metrics-instrumented and
// tracer-instrumented ingest paths within 5% of stripped builds. See the
// README's Observability and Tracing sections for the metric name table and
// operational details.
//
// The cmd/ directory provides a clustering CLI, a dataset generator, and a
// driver that reproduces every figure of the paper's evaluation. The
// package Examples, whose output go test checks, show the common scenarios:
// batch and streaming clustering, merging shard sketches, and windows.
package kcenter
