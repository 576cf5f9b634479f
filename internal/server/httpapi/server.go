// Package httpapi is the HTTP transport of the kcenterd daemon. It holds the
// transport kit both roles share — the common flags and server lifecycle,
// the request middleware and its series, strict body decoding, the ingest
// decode front end (JSON/KCFL negotiation), the error contract and its
// writers, the /metrics exposition and the debug surface — and the shard
// role built on it: flag parsing, an engine.Engine with its durability and
// observability wiring, and the handlers that translate HTTP requests into
// engine operations. The router role (internal/server/router) is the kit's
// other user. The engine itself (internal/server/engine) never sees
// net/http; everything wire-shaped lives here.
package httpapi

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"coresetclustering/internal/obs"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/server/engine"
	"coresetclustering/internal/sketch"
)

// config carries the daemon defaults applied to implicitly created streams,
// plus the transport configuration the kit shares with the router role.
type config struct {
	Common
	k             int
	z             int
	budget        int
	workers       int
	dist          string
	fsync         string // fsync mode name, surfaced in durability stats
	obsMaxStreams int    // per-stream /metrics series cap (0 = default, <0 = unlimited)
}

// server is the HTTP shard daemon: the engine plus the transport knobs.
type server struct {
	cfg config
	eng *engine.Engine
}

func newServer(cfg config) *server {
	cfg.Common = cfg.WithDefaults()
	if cfg.obsMaxStreams == 0 {
		cfg.obsMaxStreams = 64
	}
	eng := engine.New(engine.Config{
		K: cfg.k, Z: cfg.z, Budget: cfg.budget, Workers: cfg.workers,
		Dist: cfg.dist, Fsync: cfg.fsync,
	})
	eng.Metrics = engine.NewMetrics()
	eng.Tracer = obs.NewTracer(cfg.TraceSample, cfg.TraceBuffer)
	return &server{cfg: cfg, eng: eng}
}

// Run is the shard role's entry point: parse flags, assemble the engine and
// its durability/observability wiring, and serve until ctx is cancelled or
// SIGINT/SIGTERM arrives. The kcenterd binary dispatches here for
// -role=shard (the default).
func Run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kcenterd", flag.ContinueOnError)
	common := RegisterFlags(fs)
	var (
		k             = fs.Int("k", 10, "default number of centers for new streams")
		z             = fs.Int("z", 0, "default number of outliers for new streams (0 = plain k-center)")
		budget        = fs.Int("budget", 0, "default working-memory budget in points (0 = 8*(k+z))")
		workers       = fs.Int("workers", 0, "distance-engine parallelism for extraction (0 = one per CPU)")
		dist          = fs.String("distance", "euclidean", fmt.Sprintf("metric space %v", sketch.SpaceNames()))
		persistDir    = fs.String("persist-dir", "", "root directory for per-stream durability (WAL + snapshots); empty = in-memory only")
		fsyncMode     = fs.String("fsync", "always", "WAL flush policy: always, interval or never")
		fsyncInterval = fs.Duration("fsync-interval", 100*time.Millisecond, "flush period under -fsync=interval")
		compactEvery  = fs.Int("compact-every", 1024, "journaled records per stream that trigger snapshot compaction (negative disables)")
		obsMaxStreams = fs.Int("obs-max-streams", 64, "per-stream series cap on /metrics (negative = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, _, err := sketch.SpaceByName(*dist); err != nil {
		return err
	}
	mode, err := persist.ParseFsyncMode(*fsyncMode)
	if err != nil {
		return err
	}
	c, err := common()
	if err != nil {
		return err
	}
	logger := obs.NewLogger(out, c.LogLevel)
	srv := newServer(config{
		Common: c,
		k:      *k, z: *z, budget: *budget, workers: *workers, dist: *dist,
		fsync: mode.String(), obsMaxStreams: *obsMaxStreams,
	})
	srv.eng.Logger = logger

	if *persistDir != "" {
		store, err := persist.Open(*persistDir, persist.Options{
			Fsync:         mode,
			FsyncInterval: *fsyncInterval,
			CompactEvery:  *compactEvery,
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
	return Serve(ctx, srv.cfg.Common, srv.routes(), srv.eng.Tracer, logger,
		"listening", "k", *k, "z", *z, "budget", *budget, "distance", *dist)
}

// handleHealthz is the liveness probe. It degrades to 503 when any stream
// has been set aside as failed: the daemon is still serving, but state a
// client acknowledged has been lost, which an orchestrator should surface
// rather than round-robin past.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if failed := s.eng.FailedStreams(); len(failed) > 0 {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":        "degraded",
			"failedStreams": failed,
		})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
	mw := Middleware{Tracer: s.eng.Tracer, Logger: s.eng.Logger, Slow: s.cfg.SlowRequest}
	if m := s.eng.Metrics; m != nil {
		mw.Metrics = NewHTTPMetrics(m.Reg, "kcenterd")
	}
	return Handler(mux, s.cfg.MaxBody, mw)
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
