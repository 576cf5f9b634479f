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
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"coresetclustering/internal/obs"
	"coresetclustering/internal/server/engine"
	"coresetclustering/internal/server/httpapi"
)

// config carries the router's knobs; fields mirror the flag set.
type config struct {
	httpapi.Common
	shards        []string      // shard addresses, order fixed for the process lifetime
	mergeInterval time.Duration // merged-view validity + background refresh period
	probeInterval time.Duration // shard health probe period (0 disables probing)
	shardTimeout  time.Duration // per-attempt bound on one shard request
	retries       int           // re-sends after a failed shard request (network error or 5xx)
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

	HTTP *httpapi.HTTPMetrics

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

		HTTP: httpapi.NewHTTPMetrics(r, "kcenterd_router"),

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
	cfg.Common = cfg.WithDefaults()
	s := &server{
		cfg:    cfg,
		eng:    engine.New(engine.Config{}),
		client: &http.Client{Transport: shardTransport()},
		logger: obs.NewLogger(io.Discard, obs.LevelInfo),
		tracer: obs.NewTracer(cfg.TraceSample, cfg.TraceBuffer),
		m:      newMetrics(),
		views:  make(map[string]*mergedView),
		known:  make(map[string]struct{}),
		closed: make(chan struct{}),
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
	common := httpapi.RegisterFlags(fs)
	var (
		shardsFlag    = fs.String("shards", "", "comma-separated shard daemon addresses (required)")
		mergeInterval = fs.Duration("merge-interval", 2*time.Second, "merged global view validity and background refresh period")
		probeInterval = fs.Duration("probe-interval", time.Second, "shard health probe period (0 disables probing)")
		shardTimeout  = fs.Duration("shard-timeout", 10*time.Second, "per-attempt timeout for one shard request")
		retries       = fs.Int("shard-retries", 2, "re-sends after a failed shard request (network error or 5xx)")
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
	c, err := common()
	if err != nil {
		return err
	}
	srv := newServer(config{
		Common:        c,
		shards:        shards,
		mergeInterval: *mergeInterval,
		probeInterval: *probeInterval,
		shardTimeout:  *shardTimeout,
		retries:       *retries,
	})
	srv.logger = obs.NewLogger(out, c.LogLevel)
	defer close(srv.closed)

	if srv.cfg.probeInterval > 0 {
		go srv.probeLoop()
	}
	go srv.refreshLoop()
	return httpapi.Serve(ctx, srv.cfg.Common, srv.routes(), srv.tracer, srv.logger,
		"router listening", "shards", len(srv.shards), "mergeInterval", srv.cfg.mergeInterval)
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
	return httpapi.Handler(mux, s.cfg.MaxBody, httpapi.Middleware{
		Metrics: s.m.HTTP, Tracer: s.tracer, Logger: s.logger, Slow: s.cfg.SlowRequest,
	})
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
