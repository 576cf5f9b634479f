package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"coresetclustering/internal/obs"
)

// statusWriter records the status code a handler sent (200 when the handler
// wrote a body without an explicit WriteHeader).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// requestIDOK bounds what a role accepts as a caller-supplied X-Request-ID:
// short, printable, no spaces — anything else is replaced so a hostile header
// cannot inject log fields or unbounded bytes into every line.
func requestIDOK(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '=' {
			return false
		}
	}
	return true
}

// newRequestID returns a fresh random 16-hex-digit request ID
// (crypto/rand.Read never fails since Go 1.24).
func newRequestID() string {
	var buf [8]byte
	rand.Read(buf[:])
	return hex.EncodeToString(buf[:])
}

// HTTPMetrics is a role's request-level series: per-route counters and
// latency histograms, in-flight and slow-request counts.
type HTTPMetrics struct {
	Requests *obs.CounterVec   // route, method, status
	Duration *obs.HistogramVec // route
	InFlight *obs.Gauge
	Slow     *obs.Counter
}

// NewHTTPMetrics registers a role's HTTP series on reg under prefix
// ("kcenterd" for the shard daemon, "kcenterd_router" for the router), so a
// shared scrape config can tell the roles apart. Registering the same prefix
// twice returns the same series.
func NewHTTPMetrics(reg *obs.Registry, prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: reg.CounterVec(prefix+"_http_requests_total",
			"HTTP requests served, by route pattern, method and status code.",
			"route", "method", "status"),
		Duration: reg.HistogramVec(prefix+"_http_request_duration_seconds",
			"HTTP request latency by route pattern.",
			obs.DefDurationBuckets, "route"),
		InFlight: reg.Gauge(prefix+"_http_in_flight_requests",
			"Requests currently being handled."),
		Slow: reg.Counter(prefix+"_http_slow_requests_total",
			"Requests slower than the -slow-request threshold."),
	}
}

// Middleware is the request middleware of both roles. With nil Metrics and a
// nil Tracer it is a pass-through that only assigns and echoes X-Request-ID
// (the benchmarks' uninstrumented baseline).
type Middleware struct {
	Metrics *HTTPMetrics  // nil records no HTTP series
	Tracer  *obs.Tracer   // nil opens no spans and sends no X-Trace-ID
	Logger  *slog.Logger  // nil discards
	Slow    time.Duration // slow-request threshold (0 = disabled)
}

// requestIDKey carries the request's X-Request-ID through its context.
type requestIDKey struct{}

// RequestID returns the X-Request-ID of the request ctx belongs to ("" outside
// an instrumented request), so a role's outbound calls — the router's shard
// fan-outs — re-send it: one client request is one ID across the whole
// cluster's logs.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// Handler mounts a role's routes behind the request middleware and the
// maxBody request-body cap.
func Handler(routes http.Handler, maxBody int64, m Middleware) http.Handler {
	// The middleware sits INSIDE MaxBytesHandler: MaxBytesHandler forwards a
	// shallow copy of the request, and the mux populates Pattern in place on
	// the request it receives — the middleware must hold that same copy to
	// read the route label afterwards.
	return http.MaxBytesHandler(m.wrap(routes), maxBody)
}

// wrap instruments next: every request gets an X-Request-ID (the caller's,
// when well-formed, so IDs propagate through shard fan-outs; a fresh one
// otherwise) echoed on the response and carried in the context, a root span
// honoring an inbound traceparent header (the trace ID echoed as X-Trace-ID,
// so a load run or a router fan-out can pull the exact trace from
// /debug/traces/{id}), per-route counters and latency histograms keyed by the
// mux pattern that matched, and a warn-level log line — carrying the trace ID
// and the per-stage breakdown — when the request exceeds the slow threshold.
func (mw Middleware) wrap(next http.Handler) http.Handler {
	if mw.Logger == nil {
		mw.Logger = slog.New(slog.DiscardHandler)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if !requestIDOK(reqID) {
			reqID = newRequestID()
		}
		// Response headers are set under their canonical spelling (the bytes
		// on the wire either way): Set would otherwise allocate the canonical
		// key on every request.
		w.Header().Set("X-Request-Id", reqID)
		m, t := mw.Metrics, mw.Tracer
		if m == nil && t == nil {
			next.ServeHTTP(w, r)
			return
		}
		ctx := context.WithValue(r.Context(), requestIDKey{}, reqID)
		var root *obs.Span
		if t != nil {
			ctx, root = t.StartRoot(ctx, r.Method, r.Header.Get("traceparent"))
			w.Header().Set("X-Trace-Id", root.TraceID())
		}
		r = r.WithContext(ctx)
		if m != nil {
			m.InFlight.Add(1)
			defer m.InFlight.Add(-1)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		route := r.Pattern // set in place by the mux while routing
		if route == "" {
			route = "unmatched"
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		code := strconv.Itoa(status)
		slow := mw.Slow > 0 && elapsed >= mw.Slow
		if root != nil {
			// A matched mux pattern already carries the method ("POST /x");
			// only the "unmatched" fallback needs it prefixed.
			if strings.Contains(route, " ") {
				root.SetName(route)
			} else {
				root.SetName(r.Method + " " + route)
			}
			root.SetAttr("status", code)
			root.SetAttr("requestId", reqID)
			if status >= http.StatusInternalServerError {
				root.Force("error")
			}
			if slow {
				root.Force("slow")
			}
			root.End()
		}
		if m != nil {
			m.Requests.With(route, r.Method, code).Add(1)
			m.Duration.With(route).ObserveDuration(elapsed)
		}
		if slow {
			if m != nil {
				m.Slow.Add(1)
			}
			mw.Logger.Warn("slow request",
				"requestId", reqID, "traceId", root.TraceID(),
				"method", r.Method, "route", route,
				"status", status, "duration", elapsed,
				"stages", root.Breakdown())
		} else if mw.Logger.Enabled(r.Context(), slog.LevelDebug) {
			mw.Logger.Debug("request",
				"requestId", reqID, "method", r.Method, "route", route,
				"status", status, "duration", elapsed)
		}
	})
}

// WriteMetrics answers a /metrics scrape for either role: a HEAD probe gets
// the headers alone; otherwise the process-lifetime registry is rendered
// first, then the scrape-time series fill puts into a throwaway registry, so
// both share the golden-tested formatter.
func WriteMetrics(w http.ResponseWriter, r *http.Request, lifetime *obs.Registry, log *slog.Logger, fill func(scrape *obs.Registry)) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodHead {
		// Probes want the headers, not a full render of every series.
		w.WriteHeader(http.StatusOK)
		return
	}
	scrape := obs.NewRegistry()
	fill(scrape)
	if err := lifetime.WritePrometheus(w); err != nil {
		return // client went away; nothing sensible left to send
	}
	if err := scrape.WritePrometheus(w); err != nil {
		log.Debug("metrics scrape write failed", "error", err)
	}
}

// handleMetrics serves the shard's exposition: the lifetime registry, then
// scrape-time series (uptime, stream census, per-stream gauges). Per-stream
// series come exclusively from published query views and atomic counters —
// scraping never touches a stream's ingest mutex, so /metrics stays
// responsive while ingest, fsyncs or compactions are in flight. Per-stream
// cardinality is capped at -obs-max-streams series (alphabetically first
// names win, deterministically); the number omitted is itself exported.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics
	if m == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	WriteMetrics(w, r, m.Reg, s.eng.Logger, func(scrape *obs.Registry) {
		names := s.eng.StreamNames()
		total := len(names)
		omitted := 0
		if max := s.cfg.obsMaxStreams; max >= 0 && total > max {
			omitted = total - max
			names = names[:max]
		}
		scrape.Gauge("kcenterd_uptime_seconds",
			"Seconds since the daemon started.").Set(time.Since(m.Start).Seconds())
		scrape.Gauge("kcenterd_streams",
			"Streams currently hosted.").Set(float64(total))
		scrape.Gauge("kcenterd_streams_failed_current",
			"Streams currently set aside as failed.").Set(float64(s.eng.FailedCount()))
		scrape.Gauge("kcenterd_streams_omitted",
			"Streams beyond the -obs-max-streams per-stream series cap.").Set(float64(omitted))

		observed := scrape.GaugeVec("kcenterd_stream_observed_points",
			"Lifetime points observed by the stream.", "stream")
		working := scrape.GaugeVec("kcenterd_stream_working_memory_points",
			"Points currently retained by the stream's sketch.", "stream")
		version := scrape.GaugeVec("kcenterd_stream_version",
			"Mutations applied to the stream in-process.", "stream")
		livePts := scrape.GaugeVec("kcenterd_stream_live_points",
			"Points summarised by the live window (window streams only).", "stream")
		for _, name := range names {
			st, ok := s.eng.Lookup(name)
			if !ok {
				continue
			}
			v := st.View()
			observed.With(name).Set(float64(v.Observed))
			working.With(name).Set(float64(v.WorkingMemory))
			version.With(name).Set(float64(v.Version))
			if v.Window != nil {
				livePts.With(name).Set(float64(v.Window.LivePoints))
			}
		}
	})
}

// debugRoutes builds the opt-in -debug-addr surface: pprof, expvar and the
// retained-trace endpoints on their own mux, which Serve binds to the
// separate debug listener only, never to the ingest port.
func debugRoutes(t *obs.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) { handleTraceList(w, r, t) })
	mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) { handleTraceByID(w, r, t) })
	return mux
}

// handleTraceList serves the retained traces newest first, optionally
// filtered by ?route= (substring of the trace name, i.e. "METHOD /pattern")
// and ?minDur= (a Go duration; traces at least this long).
func handleTraceList(w http.ResponseWriter, r *http.Request, t *obs.Tracer) {
	if t == nil {
		Error(w, http.StatusNotFound, "tracing_disabled", fmt.Errorf("tracing is disabled (-trace-buffer 0)"))
		return
	}
	var minDur time.Duration
	if v := r.URL.Query().Get("minDur"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			Error(w, http.StatusBadRequest, "bad_min_dur", fmt.Errorf("minDur: %w", err))
			return
		}
		minDur = d
	}
	route := r.URL.Query().Get("route")
	out := make([]obs.TraceSummary, 0, 32)
	for _, tr := range t.Recent() {
		if route != "" && !strings.Contains(tr.Name(), route) {
			continue
		}
		if tr.Duration() < minDur {
			continue
		}
		out = append(out, tr.Summary())
	}
	WriteJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// handleTraceByID serves one retained trace's full span tree.
func handleTraceByID(w http.ResponseWriter, r *http.Request, t *obs.Tracer) {
	if t == nil {
		Error(w, http.StatusNotFound, "tracing_disabled", fmt.Errorf("tracing is disabled (-trace-buffer 0)"))
		return
	}
	tr := t.Find(r.PathValue("id"))
	if tr == nil {
		Error(w, http.StatusNotFound, "trace_not_found", fmt.Errorf("no retained trace %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, tr.Detail())
}
