package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"coresetclustering/internal/obs"
	"coresetclustering/internal/server/httpapi"
)

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
	httpapi.WriteJSON(w, status, map[string]any{"status": state, "shards": shards})
}

// handleMetrics serves the router's Prometheus exposition: the lifetime
// registry first, then scrape-time series (uptime, shard census and health,
// known streams).
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteMetrics(w, r, s.m.Reg, s.logger, func(scrape *obs.Registry) {
		scrape.Gauge("kcenterd_router_uptime_seconds",
			"Seconds since the router started.").Set(time.Since(s.m.Start).Seconds())
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
	})
}
