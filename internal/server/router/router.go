// Package router implements the kcenterd -role=router coordinator: a
// stateless front that hash-partitions ingest batches across a fixed set of
// shard daemons and serves a cluster-wide view by periodically pulling shard
// snapshots and merging them — the paper's round-2 composition over the
// network. The router holds no sketch state of its own beyond the merged-view
// cache; every durable byte lives on the shards, so a router restart loses
// nothing.
//
// Partitioning is stable per point: the FNV-1a hash of a point's coordinate
// bits picks its shard, so re-sending the same point routes identically
// regardless of batch boundaries or ingest order. Cross-shard batches are
// not atomic — each shard acknowledges its partition independently, and a
// partition that exhausts its retries fails the request even though sibling
// partitions may already be applied.
package router

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"coresetclustering/internal/obs"
	"coresetclustering/internal/server/engine"
	"coresetclustering/internal/server/httpapi"
)

// config carries the router's knobs; fields mirror the flag set.
type config struct {
	shards        []string      // shard addresses, order fixed for the process lifetime
	mergeInterval time.Duration // merged-view validity + background refresh period
	probeInterval time.Duration // shard health probe period (0 disables probing)
	shardTimeout  time.Duration // per-attempt bound on one shard request
	retries       int           // re-sends after a failed shard request (network error or 5xx)
	maxBody       int64         // inbound request-body cap in bytes
	slowReq       time.Duration // slow-request log threshold (0 = disabled)
	traceSample   int           // head-sample 1 in N requests (0 = default 16)
	traceBuffer   int           // retained completed traces (0 = default 256, <0 = off)
}

// shard is one backend daemon: its base URL plus the health state the probe
// loop maintains ("ok", "degraded", "unreachable: ...", or "unprobed").
type shard struct {
	addr string // as configured, the metrics/health label
	base string // http://host:port

	mu    sync.Mutex
	state string
}

func (sh *shard) setState(s string) { sh.mu.Lock(); sh.state = s; sh.mu.Unlock() }
func (sh *shard) getState() string  { sh.mu.Lock(); defer sh.mu.Unlock(); return sh.state }

// server is the router: the shard set, the merge engine (a stateless
// engine.Engine used only for MergeSketches and its typed errors), the
// merged-view cache and the observability plumbing.
type server struct {
	cfg    config
	shards []*shard
	eng    *engine.Engine // merge-only; hosts no streams
	client *http.Client
	logger *obs.Logger
	tracer *obs.Tracer
	m      *metrics

	mu     sync.Mutex
	views  map[string]*mergedView // per-stream cached global view
	known  map[string]struct{}    // streams some shard hosts; the refresher's worklist
	closed chan struct{}          // closes on shutdown; stops background loops
}

// metrics is the router's Prometheus registry: every series is prefixed
// kcenterd_router_ so a shared scrape config can tell roles apart.
type metrics struct {
	Reg   *obs.Registry
	Start time.Time

	HTTPRequests *obs.CounterVec // route, method, status
	HTTPDuration *obs.HistogramVec
	HTTPInFlight *obs.Gauge
	HTTPSlow     *obs.Counter

	IngestBatches *obs.Counter
	IngestPoints  *obs.Counter

	ShardSends    *obs.CounterVec // shard
	ShardRetries  *obs.CounterVec // shard
	ShardFailures *obs.CounterVec // shard
	ShardSendDur  *obs.HistogramVec
	ShardPulls    *obs.CounterVec // shard, result

	Merges         *obs.Counter
	MergeFailures  *obs.Counter
	MergeCacheHits *obs.Counter
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	return &metrics{
		Reg:   r,
		Start: time.Now(),

		HTTPRequests: r.CounterVec("kcenterd_router_http_requests_total",
			"HTTP requests served by the router, by route pattern, method and status code.",
			"route", "method", "status"),
		HTTPDuration: r.HistogramVec("kcenterd_router_http_request_duration_seconds",
			"Router HTTP request latency by route pattern.",
			obs.DefDurationBuckets, "route"),
		HTTPInFlight: r.Gauge("kcenterd_router_http_in_flight_requests",
			"Requests currently being handled by the router."),
		HTTPSlow: r.Counter("kcenterd_router_http_slow_requests_total",
			"Router requests slower than the -slow-request threshold."),

		IngestBatches: r.Counter("kcenterd_router_ingest_batches_total",
			"Client ingest batches accepted and fanned out."),
		IngestPoints: r.Counter("kcenterd_router_ingest_points_total",
			"Points routed to shards across all streams."),

		ShardSends: r.CounterVec("kcenterd_router_shard_sends_total",
			"Requests sent to each shard (including retries).", "shard"),
		ShardRetries: r.CounterVec("kcenterd_router_shard_retries_total",
			"Shard requests re-sent after a network error or 5xx.", "shard"),
		ShardFailures: r.CounterVec("kcenterd_router_shard_send_failures_total",
			"Shard requests that failed after exhausting retries.", "shard"),
		ShardSendDur: r.HistogramVec("kcenterd_router_shard_send_duration_seconds",
			"Latency of one shard request (per attempt).",
			obs.DefDurationBuckets, "shard"),

		ShardPulls: r.CounterVec("kcenterd_router_shard_pulls_total",
			"Conditional snapshot pulls answered by each shard: modified (200, new bytes), not_modified (304) or absent (404 unknown_stream).",
			"shard", "result"),

		Merges: r.Counter("kcenterd_router_merges_total",
			"Merged-view refreshes that ran MergeSketches because a shard's snapshot changed."),
		MergeFailures: r.Counter("kcenterd_router_merge_failures_total",
			"Merged-view refreshes that failed."),
		MergeCacheHits: r.Counter("kcenterd_router_merge_cache_hits_total",
			"Global-view queries answered from the cached merge: still fresh, or revalidated by every shard."),
	}
}

func newServer(cfg config) *server {
	if cfg.mergeInterval <= 0 {
		cfg.mergeInterval = 2 * time.Second
	}
	if cfg.shardTimeout <= 0 {
		cfg.shardTimeout = 10 * time.Second
	}
	if cfg.retries < 0 {
		cfg.retries = 0
	}
	if cfg.maxBody <= 0 {
		cfg.maxBody = 64 << 20
	}
	if cfg.traceSample == 0 {
		cfg.traceSample = 16
	}
	if cfg.traceBuffer == 0 {
		cfg.traceBuffer = 256
	}
	s := &server{
		cfg:    cfg,
		eng:    engine.New(engine.Config{}),
		client: &http.Client{Transport: shardTransport()},
		logger: obs.NewLogger(io.Discard, obs.LevelInfo),
		m:      newMetrics(),
		views:  make(map[string]*mergedView),
		known:  make(map[string]struct{}),
		closed: make(chan struct{}),
	}
	if cfg.traceBuffer > 0 {
		s.tracer = obs.NewTracer(cfg.traceSample, cfg.traceBuffer)
	}
	for _, addr := range cfg.shards {
		base := addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		s.shards = append(s.shards, &shard{
			addr: addr, base: strings.TrimRight(base, "/"), state: "unprobed",
		})
	}
	return s
}

// shardIdleConns is the keep-alive pool per shard. Ingest fan-out, snapshot
// pulls, stats broadcasts and probes of concurrent client requests all talk
// to the same few hosts; the default transport keeps two idle connections per
// host and closes the rest, so anything past two requests in flight would
// re-dial on every burst.
const shardIdleConns = 64

// shardTransport is http.DefaultTransport with a per-host idle pool sized
// for fan-out and no process-wide cap beneath it.
func shardTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0
	t.MaxIdleConnsPerHost = shardIdleConns
	return t
}

// Run is the router role's entry point, handed the post--role argument list
// by cmd/kcenterd.
func Run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kcenterd -role=router", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		shardsFlag    = fs.String("shards", "", "comma-separated shard daemon addresses (required)")
		mergeInterval = fs.Duration("merge-interval", 2*time.Second, "merged global view validity and background refresh period")
		probeInterval = fs.Duration("probe-interval", time.Second, "shard health probe period (0 disables probing)")
		shardTimeout  = fs.Duration("shard-timeout", 10*time.Second, "per-attempt timeout for one shard request")
		retries       = fs.Int("shard-retries", 2, "re-sends after a failed shard request (network error or 5xx)")
		maxBody       = fs.Int64("max-body", 64<<20, "request body size cap in bytes")
		logLevel      = fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
		slowReq       = fs.Duration("slow-request", time.Second, "log requests slower than this at warn level (0 disables)")
		debugAddr     = fs.String("debug-addr", "", "separate listen address for pprof, expvar and /debug/traces (empty = disabled)")
		traceSample   = fs.Int("trace-sample", 16, "head-sample 1 in N requests for tracing (slow and errored requests are always captured)")
		traceBuffer   = fs.Int("trace-buffer", 256, "completed traces retained for /debug/traces (0 disables tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var shards []string
	for _, a := range strings.Split(*shardsFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			shards = append(shards, a)
		}
	}
	if len(shards) == 0 {
		return fmt.Errorf("-shards is required for -role=router")
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
	srv := newServer(config{
		shards:        shards,
		mergeInterval: *mergeInterval,
		probeInterval: *probeInterval,
		shardTimeout:  *shardTimeout,
		retries:       *retries,
		maxBody:       *maxBody,
		slowReq:       *slowReq,
		traceSample:   *traceSample,
		traceBuffer:   buffer,
	})
	srv.logger = obs.NewLogger(out, level)
	defer close(srv.closed)

	if srv.cfg.probeInterval > 0 {
		go srv.probeLoop()
	}
	go srv.refreshLoop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.routes(), ReadHeaderTimeout: 10 * time.Second}

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		debugSrv = &http.Server{Handler: httpapi.DebugRoutes(srv.tracer), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				srv.logger.Error("debug server", "err", err)
			}
		}()
		srv.logger.Info("debug server listening", "addr", dln.Addr())
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	srv.logger.Info("router listening", "addr", ln.Addr(),
		"shards", len(srv.shards), "mergeInterval", srv.cfg.mergeInterval)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	srv.logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(shutdownCtx); err != nil {
			srv.logger.Error("debug server shutdown", "err", err)
		}
	}
	return httpSrv.Shutdown(shutdownCtx)
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
	return http.MaxBytesHandler(s.withObs(mux), s.cfg.maxBody)
}

// remember records a stream name for the background merge refresher.
func (s *server) remember(name string) {
	s.mu.Lock()
	s.known[name] = struct{}{}
	s.mu.Unlock()
}

// knownStreams snapshots the names the refresher keeps fresh.
func (s *server) knownStreams() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.known))
	for n := range s.known {
		names = append(names, n)
	}
	return names
}
