package httpapi

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"coresetclustering/internal/benchgate"
)

// benchIngestHandler builds a routed server with the instrumentation either
// live or stripped (srv.eng.Metrics = nil turns every metric site into one nil
// check; srv.eng.Tracer = nil does the same for every span site) and returns a
// closure that drives one full ingest request — middleware, decode, validate,
// apply, publish — through ServeHTTP in-process. A loopback socket would add
// TCP/scheduler noise an order of magnitude larger than the instrumentation
// cost the two gates below exist to measure.
func benchIngestHandler(b *testing.B, metrics, traced bool) func() {
	srv := newServer(config{k: 8, budget: 64, workers: 1})
	if !metrics {
		srv.eng.Metrics = nil
	}
	if !traced {
		srv.eng.Tracer = nil
	}
	handler := srv.routes()
	body := benchIngestBody(b, 100, 8, 1)
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/streams/bench/points", bytes.NewReader(body))
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("ingest status %d: %s", w.Code, w.Body.String())
		}
	}
	post() // create the stream outside the timed loop
	return post
}

// BenchmarkGateIngestMetrics is the metrics-overhead gate (protocol in
// internal/benchgate): an ingest request with the metric registry live must
// take at most 1.05x as long as one with it stripped.
func BenchmarkGateIngestMetrics(b *testing.B) {
	benchgate.MedianRatio(b, "inst/bare", 0, 1.05, benchIngestHandler(b, true, false), benchIngestHandler(b, false, false))
}

// BenchmarkGateIngestTracing is the tracing-overhead gate: metrics AND the
// span tracer live at the default 1-in-16 sampling rate against a fully
// stripped server, under the same 1.05x bound. Every request records its spans
// (keep is decided at root end), so this measures the real per-request
// recording cost, not just the sampled keeps.
func BenchmarkGateIngestTracing(b *testing.B) {
	benchgate.MedianRatio(b, "traced/plain", 0, 1.05, benchIngestHandler(b, true, true), benchIngestHandler(b, false, false))
}
