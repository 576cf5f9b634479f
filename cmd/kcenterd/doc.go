// Command kcenterd is a sharded-ingest daemon for streaming k-center
// clustering: it hosts named streams, each backed by the library's
// fixed-memory streaming clusterer, and exposes the sketch subsystem over
// HTTP so that independent shard daemons can snapshot their state and a
// coordinator can merge the sketches into a global summary.
//
// Endpoints:
//
//	GET    /healthz                      liveness probe (503 + failed-stream list when degraded)
//	GET    /metrics                      Prometheus text exposition (global + per-stream series)
//	GET    /streams                      list streams and their stats (including failed ones)
//	GET    /streams/{name}/stats         introspect one stream (counts, memory, window, durability)
//	POST   /streams/{name}/points        batch ingest, JSON or binary (negotiated by Content-Type)
//	POST   /streams/{name}/ingest        alias for /points (same negotiated handler)
//	POST   /streams/{name}/advance       move a window stream's clock: {"to": ts}
//	GET    /streams/{name}/centers       extract the current k centers
//	GET    /streams/{name}/snapshot      serialize the stream (octet-stream, strong ETag; If-None-Match answers 304)
//	POST   /streams/{name}/snapshot      alias for the GET (same handler)
//	POST   /streams/{name}/restore       recreate the stream from a sketch body
//	DELETE /streams/{name}               drop the stream
//	POST   /merge                        merge base64 sketches {"sketches": [...]}
//
// Streams are created on first ingest with the daemon's default parameters;
// ?k= &z= &budget= query parameters on that first request override them.
// ?window=N and/or ?windowDur=D make the stream a sliding-window one: it
// summarises only the last N points and/or the last D timestamp ticks, with
// whole buckets evicted automatically as they age out. Window streams accept
// an optional "timestamps" array alongside "points" (one non-negative,
// non-decreasing int64 per point, in the same caller-defined units as
// ?windowDur=); batches without timestamps reuse the newest observed one.
// Snapshots of window streams carry the full window state (magic KCWN) and
// restore to live window streams; window sketches cannot be merged.
//
// Ingest speaks two wire encodings, negotiated by Content-Type. JSON
// ({"points": [[...], ...], "timestamps": [...]}) is the default; a
// Content-Type of application/x-kcenter-flat switches the body to the KCFL
// binary flat frame — a 20-byte header (magic, version, dimension, count)
// followed by big-endian float64 coordinates, optionally trailed by a KCTS
// block of per-point int64 timestamps for window streams. A .kcf dataset
// file is a valid frame body verbatim. Binary frames decode directly into
// the clusterer's flat point layout with no per-point allocation and are
// validated as strictly as JSON (a malformed frame is a 400 invalid_frame,
// an unrecognised Content-Type a 415 unsupported_media_type); the two
// encodings are state-equivalent — the same points yield byte-identical
// snapshots either way. cmd/kcenterload generates load in both encodings
// and reports measured throughput and ack latency.
//
// With -persist-dir set, every stream is durable: stream creation, ingest
// batches and clock advances are journaled to a per-stream write-ahead log
// (fsynced per -fsync) before they are acknowledged — under -fsync=always,
// concurrent appends coalesce into shared group-commit fsyncs without
// weakening the guarantee — the stream state is
// periodically compacted into a snapshot via the sketch codecs (-compact-every
// journaled records), and on boot the daemon recovers every stream by loading
// its newest valid snapshot and replaying the log tail — a recovered stream's
// re-snapshot is byte-identical to an uninterrupted run's. DELETE tombstones
// the stream's directory; restore replaces it atomically. Per-stream recovery
// and journal statistics are surfaced on GET /streams/{name}/stats.
//
// Error responses are typed: {"error": ..., "code": ...} where code is a
// stable machine-readable identifier (invalid_point, dimension_mismatch,
// invalid_timestamps, unknown_stream, invalid_frame, unsupported_media_type,
// body_too_large, ...). Every rejection happens before the journal, and
// everything admitted terminates: one admission rule (coordinates within
// ±2^500, at most 2^20 of them, the stream's dimension, timestamps not behind
// its clock) refuses a batch before any point is journaled or applied. JSON
// bodies are decoded strictly: unknown fields and trailing data are
// invalid_json, and a body over -max-body bytes is a 413 body_too_large.
//
// Writes to one stream (ingest, advance) serialise on the stream's ingest
// mutex, while reads are wait-free: every acknowledged write publishes an
// immutable copy-on-write query view (cloning the clusterer costs O(budget)
// for insertion-only streams and O(log window) shared bucket pointers for
// window streams), and GET /centers, /stats and /snapshot answer from the
// newest published view without ever touching the ingest mutex — a query
// never stalls behind an in-flight batch, fsync or compaction. Reads are
// snapshot-isolated: a reader always observes the state exactly as of some
// acknowledged batch boundary (the view's "version", a per-process counter of
// applied mutations surfaced in stats), never a torn mid-batch state. Each
// view memoises its extraction and snapshot, so repeated queries at an
// unchanged version are cache hits — byte-identical to a fresh extraction,
// with hit/miss counters in stats — and the cache dies with the view, so
// invalidation is automatic. Distinct streams ingest in parallel.
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight requests
// and flushes the journals.
//
// The daemon is observable end to end. Every request carries an
// X-Request-ID (assigned if the client did not send a well-formed one, and
// echoed back) that tags its structured log lines; logs are levelled
// log/slog text records on stderr, filtered by -log-level, and any request
// slower than -slow-request (default 1s, 0 disables) is logged at warn
// with its route, status and duration. GET /metrics serves Prometheus
// text exposition: per-route×status HTTP counters and latency histograms,
// ingest/eviction/view-publish/cache counters, WAL append/fsync/compaction/
// recovery timings, plus per-stream gauges (observed points, working
// memory, version) rendered from published query views — the scrape never
// touches an ingest mutex. Per-stream series are capped at -obs-max-streams
// streams (alphabetically; a kcenterd_streams_omitted gauge counts the
// rest).
//
// Every request is also traced as a span tree — decode, validate, journal,
// group-commit wait, apply and publish on the ingest path; extraction with
// cache attribution on queries; background traces for compaction, recovery
// and the interval flusher. An inbound W3C traceparent header joins the
// caller's trace and every response echoes its trace ID as X-Trace-ID.
// Traces are recorded always but retained selectively: a deterministic 1 in
// -trace-sample requests (default 16), plus every slow or 5xx request
// regardless of sampling, kept in a ring of -trace-buffer traces (default
// 256; 0 disables tracing). The slow-request warn log carries the trace ID
// and per-stage breakdown (stages="decode=… journal=…"), and retained
// traces are served as JSON at /debug/traces (list, ?route= and ?minDur=
// filters) and /debug/traces/{id} (full span tree) on the debug listener.
//
// -debug-addr starts a separate listener with net/http/pprof, expvar and
// the /debug/traces surface; all three are off unless that flag is set and
// never ride the ingest port.
//
// The binary hosts two roles, selected by -role. The default, -role=shard,
// is the single-node daemon described above. -role=router starts the first
// multi-node role: a stateless coordinator that hash-partitions ingest
// batches across a fixed set of shard daemons (-shards, comma-separated
// addresses) with per-shard retries, probes shard health into /healthz and
// /metrics, and periodically pulls shard snapshots (conditionally, by ETag:
// an unchanged shard answers 304) and merges them when one changed — the
// paper's round-2 composition — into a cached cluster-wide view served at
// /streams/{name}/centers, /stats and /snapshot. See the README's "Cluster"
// section for topology and consistency caveats.
//
// Architecture: the daemon is three layers. internal/server/engine owns all
// state and semantics — the stream table, ingest/advance application,
// published query views, journaling and recovery against internal/persist,
// and sketch merging — behind a transport-agnostic API with typed errors and
// no HTTP dependency. internal/server/httpapi is the HTTP transport: the
// shard role's routes and handlers, and the transport kit both roles share —
// the seven common flags (-addr -max-body -log-level -slow-request
// -debug-addr -trace-sample -trace-buffer) and the listen/debug/shutdown
// lifecycle, the request middleware and its series, strict JSON decoding and
// the -max-body check, the JSON/KCFL ingest decode front end, the mapping
// from engine error codes to status codes and the error writer, and the
// /metrics and debug surfaces. The router role (internal/server/router)
// builds on the same kit, so both roles reject a malformed or oversized
// request with the same status and code. This package is only the
// assembler: it parses -role and hands the remaining flags to the chosen
// role's Run function.
//
// Usage:
//
//	kcenterd -addr :8080 -k 20 -budget 320
//	kcenterd -addr :8080 -k 20 -z 100 -distance manhattan
//	kcenterd -addr :8080 -persist-dir /var/lib/kcenterd -fsync always
//	kcenterd -addr :8080 -debug-addr 127.0.0.1:6060 -slow-request 250ms -log-level debug
//	kcenterd -role=router -addr :9090 -shards localhost:8081,localhost:8082 -merge-interval 2s
package main
