package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"coresetclustering/internal/obs"
	"coresetclustering/internal/server/httpapi"
)

// requestIDKey carries the request's X-Request-ID through the context so
// shard fan-outs re-send it: one client request is one ID across the whole
// cluster's logs.
type requestIDKey struct{}

// obsStartSpan opens a child span on a request's context (a no-op span when
// tracing is off — obs.StartSpan handles the nil case).
func obsStartSpan(r *http.Request, name string) (context.Context, *obs.Span) {
	return obs.StartSpan(r.Context(), name)
}

// statusWriter records the status code a handler sent.
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

// requestIDOK bounds what the router accepts as a caller-supplied
// X-Request-ID, mirroring the shard daemon's rule.
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

// withObs is the router's request instrumentation: X-Request-ID assignment
// and propagation (into the context, for shard fan-outs), a root span that
// honors an inbound traceparent and is echoed as X-Trace-ID, per-route
// counters and latency histograms, and slow-request warn logs — the same
// shape as the shard daemon's middleware, on kcenterd_router_* series.
func (s *server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if !requestIDOK(reqID) {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ctx := context.WithValue(r.Context(), requestIDKey{}, reqID)
		var root *obs.Span
		if s.tracer != nil {
			ctx, root = s.tracer.StartRoot(ctx, r.Method, r.Header.Get("traceparent"))
			w.Header().Set("X-Trace-ID", root.TraceID())
		}
		r = r.WithContext(ctx)
		m := s.m
		m.HTTPInFlight.Add(1)
		defer m.HTTPInFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		slow := s.cfg.slowReq > 0 && elapsed >= s.cfg.slowReq
		if root != nil {
			if strings.Contains(route, " ") {
				root.SetName(route)
			} else {
				root.SetName(r.Method + " " + route)
			}
			root.SetAttr("status", strconv.Itoa(status))
			root.SetAttr("requestId", reqID)
			if status >= http.StatusInternalServerError {
				root.Force("error")
			}
			if slow {
				root.Force("slow")
			}
			root.End()
		}
		m.HTTPRequests.With(route, r.Method, fmt.Sprintf("%d", status)).Add(1)
		m.HTTPDuration.With(route).ObserveDuration(elapsed)
		if slow {
			m.HTTPSlow.Add(1)
			s.logger.Warn("slow request",
				"requestId", reqID, "traceId", root.TraceID(),
				"method", r.Method, "route", route,
				"status", status, "duration", elapsed,
				"stages", root.Breakdown())
		} else if s.logger.Enabled(obs.LevelDebug) {
			s.logger.Debug("request",
				"requestId", reqID, "method", r.Method, "route", route,
				"status", status, "duration", elapsed)
		}
	})
}

// probeLoop keeps each shard's health state current: one probe round
// immediately at startup, then one per -probe-interval.
func (s *server) probeLoop() {
	t := time.NewTicker(s.cfg.probeInterval)
	defer t.Stop()
	for {
		s.probeOnce()
		select {
		case <-s.closed:
			return
		case <-t.C:
		}
	}
}

// probeOnce probes every shard's /healthz concurrently. A 200 is "ok", any
// other answer is "degraded" (the shard is up but has set streams aside),
// and a transport failure is "unreachable".
func (s *server) probeOnce() {
	timeout := s.cfg.probeInterval
	if timeout <= 0 || timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	done := make(chan struct{})
	for _, sh := range s.shards {
		go func(sh *shard) {
			defer func() { done <- struct{}{} }()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.base+"/healthz", nil)
			if err != nil {
				sh.setState("unreachable: " + err.Error())
				return
			}
			resp, err := s.client.Do(req)
			if err != nil {
				sh.setState("unreachable: " + err.Error())
				return
			}
			// Drained, not just closed: a body left unread costs the probe its
			// keep-alive connection.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				sh.setState("ok")
			} else {
				sh.setState(fmt.Sprintf("degraded (status %d)", resp.StatusCode))
			}
		}(sh)
	}
	for range s.shards {
		<-done
	}
}

// handleHealthz reports the router's view of the cluster: ok only when every
// shard's latest probe succeeded; otherwise 503 with the per-shard states,
// so an orchestrator sees exactly which backend is the problem. Before the
// first probe completes (or with probing disabled) shards report "unprobed"
// and count as healthy — the router cannot claim an outage it has not seen.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := make(map[string]string, len(s.shards))
	ok := true
	for _, sh := range s.shards {
		st := sh.getState()
		shards[sh.addr] = st
		if st != "ok" && st != "unprobed" {
			ok = false
		}
	}
	status, state := http.StatusOK, "ok"
	if !ok {
		status, state = http.StatusServiceUnavailable, "degraded"
	}
	writeJSON(w, status, map[string]any{"status": state, "shards": shards})
}

// handleMetrics serves the router's Prometheus exposition: the lifetime
// registry first, then scrape-time series (uptime, shard census and health,
// known streams) rendered through the same formatter.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.m
	if r.Method == http.MethodHead {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		return
	}
	scrape := obs.NewRegistry()
	scrape.Gauge("kcenterd_router_uptime_seconds",
		"Seconds since the router started.").Set(time.Since(m.Start).Seconds())
	scrape.Gauge("kcenterd_router_shards",
		"Shards the router fans out to.").Set(float64(len(s.shards)))
	scrape.Gauge("kcenterd_router_streams_known",
		"Stream names the router has seen (and keeps merged views for).").Set(float64(len(s.knownStreams())))
	healthy := scrape.GaugeVec("kcenterd_router_shard_healthy",
		"1 when the shard's latest health probe succeeded, 0 otherwise.", "shard")
	for _, sh := range s.shards {
		st := sh.getState()
		v := 0.0
		if st == "ok" || st == "unprobed" {
			v = 1
		}
		healthy.With(sh.addr).Set(v)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := m.Reg.WritePrometheus(w); err != nil {
		return // client went away
	}
	if err := scrape.WritePrometheus(w); err != nil && s.logger.Enabled(obs.LevelDebug) {
		s.logger.Debug("metrics scrape write failed", "error", err)
	}
}

// writeJSON mirrors the shard daemon's response envelope.
func writeJSON(w http.ResponseWriter, status int, v any) {
	httpapi.WriteJSON(w, status, v)
}
