// Package httpapi is the HTTP transport of the kcenterd daemon: it parses
// the shard role's flags, assembles an engine.Engine with its durability and
// observability wiring, and translates HTTP requests into engine operations —
// JSON/KCFL wire negotiation, strict decoding, typed engine errors mapped to
// the daemon's stable status codes, and the obs/trace middleware. The engine
// itself (internal/server/engine) never sees net/http; everything
// wire-shaped lives here.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"coresetclustering/internal/obs"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/server/engine"
	"coresetclustering/internal/sketch"
)

// Local aliases for the engine's stable error codes, so handler code (and the
// golden tests over the error table) read the same as before the layer split.
const (
	codeInvalidJSON       = engine.CodeInvalidJSON
	codeEmptyBatch        = engine.CodeEmptyBatch
	codeInvalidPoint      = engine.CodeInvalidPoint
	codeDimensionMismatch = engine.CodeDimensionMismatch
	codeInvalidParam      = engine.CodeInvalidParam
	codeInvalidTimestamps = engine.CodeInvalidTimestamps
	codeNotWindowed       = engine.CodeNotWindowed
	codeUnknownStream     = engine.CodeUnknownStream
	codeStreamGone        = engine.CodeStreamGone
	codeStreamFailed      = engine.CodeStreamFailed
	codeBadSketch         = engine.CodeBadSketch
	codeEmptyStream       = engine.CodeEmptyStream
	codeBodyTooLarge      = engine.CodeBodyTooLarge
	codeInvalidFrame      = engine.CodeInvalidFrame
	codeUnsupportedMedia  = engine.CodeUnsupportedMedia
	codeShardIncompatible = engine.CodeShardIncompatible
	codeShardUnavailable  = engine.CodeShardUnavailable
	codeInternal          = engine.CodeInternal
)

// codeStatus is the daemon's error contract: every stable machine-readable
// code maps to exactly one HTTP status. The golden handler tests assert this
// table against live responses, so a refactor cannot silently move a code.
var codeStatus = map[string]int{
	codeInvalidJSON:       http.StatusBadRequest,
	codeEmptyBatch:        http.StatusBadRequest,
	codeInvalidPoint:      http.StatusBadRequest,
	codeDimensionMismatch: http.StatusBadRequest,
	codeInvalidParam:      http.StatusBadRequest,
	codeInvalidTimestamps: http.StatusBadRequest,
	codeNotWindowed:       http.StatusBadRequest,
	codeBadSketch:         http.StatusBadRequest,
	codeInvalidFrame:      http.StatusBadRequest,
	codeUnknownStream:     http.StatusNotFound,
	codeStreamGone:        http.StatusConflict,
	codeEmptyStream:       http.StatusConflict,
	codeBodyTooLarge:      http.StatusRequestEntityTooLarge,
	codeUnsupportedMedia:  http.StatusUnsupportedMediaType,
	codeStreamFailed:      http.StatusInternalServerError,
	codeInternal:          http.StatusInternalServerError,
	codeShardIncompatible: http.StatusBadGateway,
	codeShardUnavailable:  http.StatusBadGateway,
}

func statusForCode(code string) int {
	if s, ok := codeStatus[code]; ok {
		return s
	}
	return http.StatusInternalServerError
}

// Wire-shape aliases: the engine owns the stats payload types, the transport
// keeps the pre-split names so handler and test code read unchanged.
type (
	streamStats     = engine.StreamStats
	windowStats     = engine.WindowStats
	durabilityStats = engine.DurabilityStats
	cacheStats      = engine.CacheStats
)

// maxBodyBytes is the default bound on every request body (batches and
// sketches alike); -max-body overrides it.
const maxBodyBytes = 64 << 20

// config carries the daemon defaults applied to implicitly created streams,
// plus the observability knobs.
type config struct {
	k             int
	z             int
	budget        int
	workers       int
	dist          string
	maxBody       int64         // request-body cap in bytes (0 = maxBodyBytes)
	fsync         string        // fsync mode name, surfaced in durability stats
	slowReq       time.Duration // slow-request log threshold (0 = disabled)
	obsMaxStreams int           // per-stream /metrics series cap (0 = default, <0 = unlimited)
	traceSample   int           // head-sample 1 in N requests (0 = default 16)
	traceBuffer   int           // retained completed traces (0 = default 256, <0 = tracing off)
}

// server is the HTTP shard daemon: the engine plus the transport knobs.
type server struct {
	cfg config
	eng *engine.Engine
}

func newServer(cfg config) *server {
	if cfg.maxBody <= 0 {
		cfg.maxBody = maxBodyBytes
	}
	if cfg.obsMaxStreams == 0 {
		cfg.obsMaxStreams = 64
	}
	if cfg.traceSample <= 0 {
		cfg.traceSample = 16
	}
	if cfg.traceBuffer == 0 {
		cfg.traceBuffer = 256 // negative = tracing disabled (NewTracer returns nil)
	}
	eng := engine.New(engine.Config{
		K: cfg.k, Z: cfg.z, Budget: cfg.budget, Workers: cfg.workers,
		Dist: cfg.dist, Fsync: cfg.fsync,
	})
	eng.Metrics = engine.NewMetrics()
	eng.Tracer = obs.NewTracer(cfg.traceSample, cfg.traceBuffer)
	return &server{cfg: cfg, eng: eng}
}

// Run is the shard role's entry point: parse flags, assemble the engine and
// its durability/observability wiring, and serve until ctx is cancelled or
// SIGINT/SIGTERM arrives. The kcenterd binary dispatches here for
// -role=shard (the default).
func Run(ctx context.Context, args []string, out io.Writer) error {
	return run(ctx, args, out)
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kcenterd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		k             = fs.Int("k", 10, "default number of centers for new streams")
		z             = fs.Int("z", 0, "default number of outliers for new streams (0 = plain k-center)")
		budget        = fs.Int("budget", 0, "default working-memory budget in points (0 = 8*(k+z))")
		workers       = fs.Int("workers", 0, "distance-engine parallelism for extraction (0 = one per CPU)")
		dist          = fs.String("distance", "euclidean", fmt.Sprintf("metric space %v", sketch.DistanceNames()))
		maxBody       = fs.Int64("max-body", maxBodyBytes, "request body size cap in bytes")
		persistDir    = fs.String("persist-dir", "", "root directory for per-stream durability (WAL + snapshots); empty = in-memory only")
		fsyncMode     = fs.String("fsync", "always", "WAL flush policy: always, interval or never")
		fsyncInterval = fs.Duration("fsync-interval", 100*time.Millisecond, "flush period under -fsync=interval")
		compactEvery  = fs.Int("compact-every", 1024, "journaled records per stream that trigger snapshot compaction (negative disables)")
		groupCommit   = fs.Bool("group-commit", true, "coalesce concurrent WAL appends into shared fsyncs under -fsync=always")
		logLevel      = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
		slowReq       = fs.Duration("slow-request", time.Second, "log requests slower than this at warn level (0 disables)")
		debugAddr     = fs.String("debug-addr", "", "separate listen address for pprof, expvar and /debug/traces (empty = disabled)")
		obsMaxStreams = fs.Int("obs-max-streams", 64, "per-stream series cap on /metrics (negative = unlimited)")
		traceSample   = fs.Int("trace-sample", 16, "head-sample 1 in N requests for tracing (slow and errored requests are always captured)")
		traceBuffer   = fs.Int("trace-buffer", 256, "completed traces retained for /debug/traces (0 disables tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, _, err := sketch.DistanceByName(*dist); err != nil {
		return err
	}
	mode, err := persist.ParseFsyncMode(*fsyncMode)
	if err != nil {
		return err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	if *maxBody <= 0 {
		return fmt.Errorf("-max-body must be positive, got %d", *maxBody)
	}
	if *slowReq < 0 {
		return fmt.Errorf("-slow-request must be non-negative, got %v", *slowReq)
	}
	if *traceSample < 1 {
		return fmt.Errorf("-trace-sample must be at least 1, got %d", *traceSample)
	}
	if *traceBuffer < 0 {
		return fmt.Errorf("-trace-buffer must be non-negative, got %d", *traceBuffer)
	}
	buffer := *traceBuffer
	if buffer == 0 {
		buffer = -1 // flag 0 means "disabled"; config 0 means "default"
	}
	logger := obs.NewLogger(out, level)
	srv := newServer(config{
		k: *k, z: *z, budget: *budget, workers: *workers, dist: *dist,
		maxBody: *maxBody, fsync: mode.String(),
		slowReq: *slowReq, obsMaxStreams: *obsMaxStreams,
		traceSample: *traceSample, traceBuffer: buffer,
	})
	srv.eng.Logger = logger

	if *persistDir != "" {
		store, err := persist.Open(*persistDir, persist.Options{
			Fsync:         mode,
			FsyncInterval: *fsyncInterval,
			CompactEvery:  *compactEvery,
			GroupCommit:   *groupCommit,
			Hooks:         srv.eng.PersistHooks(),
		})
		if err != nil {
			return err
		}
		defer func() {
			if err := store.Close(); err != nil {
				logger.Error("closing the store", "err", err)
			}
		}()
		srv.eng.Store = store
		recovered, err := store.Recover()
		if err != nil {
			return err
		}
		srv.eng.AdoptRecovered(recovered)
		logger.Info("durability on", "dir", store.Dir(), "fsync", mode, "compactEvery", *compactEvery)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.routes(), ReadHeaderTimeout: 10 * time.Second}

	// The debug surface (pprof, expvar, /debug/traces) binds its own listener
	// so profiling endpoints and trace data are never reachable through the
	// ingest port.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		debugSrv = &http.Server{Handler: DebugRoutes(srv.eng.Tracer), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server", "err", err)
			}
		}()
		logger.Info("debug server listening", "addr", dln.Addr())
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr(), "k", *k, "z", *z, "budget", *budget, "distance", *dist)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("debug server shutdown", "err", err)
		}
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return nil
}

// handleHealthz is the liveness probe. It degrades to 503 when any stream
// has been set aside as failed: the daemon is still serving, but state a
// client acknowledged has been lost, which an orchestrator should surface
// rather than round-robin past.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if failed := s.eng.FailedStreams(); len(failed) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":        "degraded",
			"failedStreams": failed,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /streams", s.handleList)
	mux.HandleFunc("GET /streams/{name}/stats", s.handleStats)
	mux.HandleFunc("POST /streams/{name}/points", s.handleIngest)
	mux.HandleFunc("POST /streams/{name}/ingest", s.handleIngest)
	mux.HandleFunc("POST /streams/{name}/advance", s.handleAdvance)
	mux.HandleFunc("GET /streams/{name}/centers", s.handleCenters)
	mux.HandleFunc("GET /streams/{name}/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /streams/{name}/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /streams/{name}/restore", s.handleRestore)
	mux.HandleFunc("DELETE /streams/{name}", s.handleDelete)
	mux.HandleFunc("POST /merge", s.handleMerge)
	// withObs sits INSIDE MaxBytesHandler: MaxBytesHandler forwards a shallow
	// copy of the request, and the mux populates Pattern in place on the
	// request it receives — the middleware must hold that same copy to read
	// the route label afterwards.
	return http.MaxBytesHandler(s.withObs(mux), s.cfg.maxBody)
}

// createParams resolves the stream-creation query parameters against the
// daemon defaults, deferring parse failures exactly as the engine expects:
// Err (first of k, z, budget, window, windowDur) fires only on the creation
// path, WinErr (window parameters alone) also on an existing stream's
// flavour check.
func (s *server) createParams(r *http.Request) engine.CreateParams {
	k, kErr := queryInt(r, "k", s.cfg.k)
	z, zErr := queryInt(r, "z", s.cfg.z)
	budget, bErr := queryInt(r, "budget", 0)
	winSize, wsErr := queryInt64(r, "window", 0)
	winDur, wdErr := queryInt64(r, "windowDur", 0)
	p := engine.CreateParams{K: k, Z: z, Budget: budget, WinSize: winSize, WinDur: winDur}
	for _, err := range []error{wsErr, wdErr} {
		if err != nil {
			p.WinErr = err
			break
		}
	}
	for _, err := range []error{kErr, zErr, bErr, wsErr, wdErr} {
		if err != nil {
			p.Err = err
			break
		}
	}
	return p
}

func queryInt(r *http.Request, key string, fallback int) (int, error) {
	n, err := queryInt64(r, key, int64(fallback))
	if err != nil {
		return 0, err
	}
	if n < math.MinInt32 || n > math.MaxInt32 {
		return 0, fmt.Errorf("%s=%d out of range", key, n)
	}
	return int(n), nil
}

func queryInt64(r *http.Request, key string, fallback int64) (int64, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return fallback, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid %s=%q", key, v)
	}
	return n, nil
}

// WriteJSON writes a JSON response body with the given status. Exported for
// the router role, which shares the daemon's wire conventions.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	writeJSON(w, status, v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorResponse is the uniform error body: a human-readable message plus a
// stable machine-readable code clients can branch on.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Error writes the daemon's uniform error body. Exported for the router
// role, which shares the daemon's wire conventions.
func Error(w http.ResponseWriter, status int, code string, err error) {
	httpError(w, status, code, err)
}

func httpError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

// EngineError translates a typed engine error into the daemon's uniform
// error response. Exported for the router role, whose merge and fan-out
// paths surface the same typed engine errors.
func EngineError(w http.ResponseWriter, err error) {
	engineError(w, err)
}

// engineError translates a typed engine error into the daemon's uniform
// error response, mapping its stable code through the status table.
func engineError(w http.ResponseWriter, err error) {
	code := engine.CodeOf(err)
	httpError(w, statusForCode(code), code, err)
}
