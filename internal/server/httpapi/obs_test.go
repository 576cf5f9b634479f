package httpapi

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"coresetclustering/internal/obs"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/server/engine"
)

// lockedBuf is an io.Writer test sink safe to read while handlers still log.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func scrapeMetrics(t *testing.T, baseURL string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

func TestRequestIDPropagation(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 16})
	for _, tc := range []struct {
		sent string
		keep bool
	}{
		{"client-abc-123", true},
		{"", false},                         // absent: a fresh one is minted
		{"has spaces in it", false},         // would break the log grammar
		{strings.Repeat("x", 100), false},   // unbounded caller bytes
		{"quote\"and=equals", false},        // log-injection shapes
		{"trace-7f3a/span-12:q.v_ok", true}, // ordinary printable punctuation
	} {
		req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.sent != "" {
			req.Header.Set("X-Request-ID", tc.sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		got := resp.Header.Get("X-Request-ID")
		if got == "" {
			t.Fatalf("sent %q: no X-Request-ID echoed", tc.sent)
		}
		if tc.keep && got != tc.sent {
			t.Errorf("sent well-formed ID %q, echoed %q", tc.sent, got)
		}
		if !tc.keep && got == tc.sent {
			t.Errorf("malformed ID %q was echoed verbatim", tc.sent)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, config{k: 3, budget: 30})
	doJSON(t, "POST", ts.URL+"/streams/plain/points", batch(blobs(120, 2, 1)), nil)
	doJSON(t, "POST", ts.URL+"/streams/plain/points", batch(blobs(80, 2, 2)), nil)
	doJSON(t, "POST", ts.URL+"/streams/win/points?window=50", batch(blobs(300, 2, 3)), nil)
	doJSON(t, "GET", ts.URL+"/streams/plain/centers", nil, nil) // miss
	doJSON(t, "GET", ts.URL+"/streams/plain/centers", nil, nil) // hit

	body, resp := scrapeMetrics(t, ts.URL)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	for _, want := range []string{
		`kcenterd_ingest_points_total 500`,
		`kcenterd_ingest_batches_total 3`,
		`kcenterd_extraction_cache_hits_total 1`,
		`kcenterd_extraction_cache_misses_total 1`,
		"# TYPE kcenterd_http_requests_total counter",
		`kcenterd_http_requests_total{route="POST /streams/{name}/points",method="POST",status="200"} 3`,
		"# TYPE kcenterd_http_request_duration_seconds histogram",
		`kcenterd_http_request_duration_seconds_bucket{route="GET /streams/{name}/centers",le="+Inf"} 2`,
		"kcenterd_http_in_flight_requests 1", // the scrape itself
		"kcenterd_streams 2",
		`kcenterd_stream_observed_points{stream="plain"} 200`,
		`kcenterd_stream_observed_points{stream="win"} 300`,
		`kcenterd_stream_live_points{stream="win"}`,
		"kcenterd_uptime_seconds",
		"kcenterd_streams_omitted 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The window stream (size 50, 300 points in) must have evicted.
	m := regexp.MustCompile(`kcenterd_stream_evicted_points_total (\d+)`).FindStringSubmatch(body)
	if m == nil {
		t.Fatal("scrape missing kcenterd_stream_evicted_points_total")
	}
	if m[1] == "0" {
		t.Error("evicted-points counter still zero after overflowing a count window")
	}
	// Insertion-only streams export no live-points series.
	if strings.Contains(body, `kcenterd_stream_live_points{stream="plain"}`) {
		t.Error("live-points series exported for a non-window stream")
	}
}

func TestMetricsPersistSeries(t *testing.T) {
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(config{k: 2, budget: 16})
	store.Close()
	store, err = persist.Open(dir, persist.Options{
		Fsync: persist.FsyncAlways,
		Hooks: srv.eng.Metrics.PersistHooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv.eng.Store = store
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	doJSON(t, "POST", ts.URL+"/streams/d/points", batch(blobs(40, 2, 4)), nil)
	doJSON(t, "POST", ts.URL+"/streams/d/points", batch(blobs(40, 2, 5)), nil)

	body, _ := scrapeMetrics(t, ts.URL)
	// The create record is part of the initial WAL image, not an append, so
	// only the two ingest batches fire AppendDone/FsyncDone.
	for _, want := range []string{
		`kcenterd_wal_appends_total{op="batch"} 2`,
		"kcenterd_wal_fsyncs_total 2",
		"# TYPE kcenterd_wal_append_duration_seconds histogram",
		"kcenterd_wal_append_bytes_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricsWaitFreeUnderIngestMutex extends the daemon's wait-free claim to
// the scrape path: /metrics must answer with a stream's ingest mutex HELD.
func TestMetricsWaitFreeUnderIngestMutex(t *testing.T) {
	srv := newServer(config{k: 3, budget: 30})
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	if resp := doJSON(t, "POST", ts.URL+"/streams/locked/points", batch(blobs(60, 2, 8)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	st, ok := srv.eng.Lookup("locked")
	if !ok {
		t.Fatal("stream not found")
	}
	st.Mu.Lock()
	defer st.Mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Error(err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("scrape with the ingest mutex held: status %d", resp.StatusCode)
		}
		if !strings.Contains(string(body), `kcenterd_stream_observed_points{stream="locked"} 60`) {
			t.Error("scrape under a held ingest mutex missing the stream's series")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("/metrics blocked on the ingest mutex")
	}
}

func TestMetricsStreamCardinalityCap(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 16, obsMaxStreams: 2})
	for _, name := range []string{"a", "b", "c", "d"} {
		doJSON(t, "POST", ts.URL+"/streams/"+name+"/points", batch(blobs(10, 2, 9)), nil)
	}
	body, _ := scrapeMetrics(t, ts.URL)
	if !strings.Contains(body, "kcenterd_streams 4") {
		t.Error("stream census must count every stream, capped or not")
	}
	if !strings.Contains(body, "kcenterd_streams_omitted 2") {
		t.Error("scrape must export how many streams the cap omitted")
	}
	// Alphabetically first names win, deterministically.
	for _, name := range []string{"a", "b"} {
		if !strings.Contains(body, fmt.Sprintf(`kcenterd_stream_observed_points{stream=%q}`, name)) {
			t.Errorf("capped scrape missing stream %q", name)
		}
	}
	for _, name := range []string{"c", "d"} {
		if strings.Contains(body, fmt.Sprintf(`kcenterd_stream_observed_points{stream=%q}`, name)) {
			t.Errorf("capped scrape still exports stream %q", name)
		}
	}
}

// TestHealthzDegradedOnFailedStream: a stream set aside mid-flight flips the
// liveness probe to 503 with the failure listed, /streams reports the name
// with status "failed", and recreating the name restores a healthy answer.
func TestHealthzDegradedOnFailedStream(t *testing.T) {
	dir := t.TempDir()
	ds := newDurableServer(t, dir, config{k: 3, budget: 30}, persist.Options{Fsync: persist.FsyncAlways})
	url := ds.http.URL + "/streams/shaky"
	doJSON(t, "POST", url+"/points", batch(blobs(50, 2, 1)), nil)

	if resp := doJSON(t, "GET", ds.http.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before failure: status %d", resp.StatusCode)
	}

	engine.ApplyPointHook = func(i int) error {
		if i == 3 {
			return fmt.Errorf("injected apply failure at point %d", i)
		}
		return nil
	}
	defer func() { engine.ApplyPointHook = func(int) error { return nil } }()
	if resp := doJSON(t, "POST", url+"/points", batch(blobs(10, 2, 2)), nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("diverged ingest: status %d, want 500", resp.StatusCode)
	}

	var health struct {
		Status        string            `json:"status"`
		FailedStreams map[string]string `json:"failedStreams"`
	}
	resp := doJSON(t, "GET", ds.http.URL+"/healthz", nil, &health)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a failed stream: status %d, want 503", resp.StatusCode)
	}
	if health.Status != "degraded" || health.FailedStreams["shaky"] == "" {
		t.Fatalf("degraded payload: %+v", health)
	}

	var list struct {
		Streams []engine.StreamStats `json:"streams"`
	}
	doJSON(t, "GET", ds.http.URL+"/streams", nil, &list)
	var found bool
	for _, st := range list.Streams {
		if st.Name == "shaky" {
			found = true
			if st.Status != "failed" || st.Reason == "" {
				t.Fatalf("failed stream listed as %+v", st)
			}
		}
	}
	if !found {
		t.Fatal("failed stream missing from /streams")
	}

	body, _ := scrapeMetrics(t, ds.http.URL)
	if !strings.Contains(body, "kcenterd_streams_failed_total 1") {
		t.Error("failure counter not incremented")
	}
	if !strings.Contains(body, "kcenterd_streams_failed_current 1") {
		t.Error("current-failed gauge not exported")
	}

	// Recreating the name clears the degradation.
	engine.ApplyPointHook = func(int) error { return nil }
	if resp := doJSON(t, "POST", url+"/points", batch(blobs(20, 2, 3)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-create after set-aside: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ds.http.URL+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after recreation: status %d, want 200", resp.StatusCode)
	}
	doJSON(t, "GET", ds.http.URL+"/streams", nil, &list)
	for _, st := range list.Streams {
		if st.Name == "shaky" && st.Status != "ok" {
			t.Fatalf("recreated stream still listed as %+v", st)
		}
	}
}

// TestDebugSurfaceIsSeparate: pprof and expvar answer on the debug mux only —
// the ingest-port routes must not expose them.
func TestDebugSurfaceIsSeparate(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 16})
	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/debug/traces"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on the ingest port: status %d, want 404", path, resp.StatusCode)
		}
	}
	debug := httptest.NewServer(debugRoutes(nil))
	t.Cleanup(debug.Close)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/vars"} {
		resp, err := http.Get(debug.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s on the debug port: status %d, want 200", path, resp.StatusCode)
		}
	}
}

func TestSlowRequestLog(t *testing.T) {
	var buf lockedBuf
	srv := newServer(config{k: 2, budget: 16, Common: Common{SlowRequest: time.Nanosecond}})
	srv.eng.Logger = slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	req, err := http.NewRequest("POST", ts.URL+"/streams/s/points",
		strings.NewReader(`{"points":[[1,2],[3,4]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "slowtest-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	line := buf.String()
	for _, want := range []string{
		`msg="slow request"`, "requestId=slowtest-1",
		`route="POST /streams/{name}/points"`, "status=200", "duration=",
		"traceId=" + resp.Header.Get("X-Trace-ID"), "stages=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-request log %q missing %q", line, want)
		}
	}

	body, _ := scrapeMetrics(t, ts.URL)
	if !strings.Contains(body, "kcenterd_http_slow_requests_total 1") {
		t.Error("slow-request counter not incremented")
	}
}

// TestBareServerStillServes: a server with metrics disabled (the benchmark
// baseline) must serve everything except /metrics, with no instrumentation.
func TestBareServerStillServes(t *testing.T) {
	srv := newServer(config{k: 2, budget: 16})
	srv.eng.Metrics = nil
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	if resp := doJSON(t, "POST", ts.URL+"/streams/x/points", batch(blobs(10, 2, 1)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("bare ingest: status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics on a bare server: status %d, want 404", resp.StatusCode)
	}
}

// TestRegisterFlags: the shared flags parse into Common.
func TestRegisterFlags(t *testing.T) {
	parse := func(args ...string) (Common, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		common := RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			return Common{}, err
		}
		return common()
	}
	t.Run("log-level", func(t *testing.T) {
		if c, err := parse(); err != nil || c.LogLevel != slog.LevelInfo {
			t.Fatalf("default -log-level: %v, %v; want INFO", c.LogLevel, err)
		}
		for in, want := range map[string]slog.Level{
			"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn,
			"warning": slog.LevelWarn, "error": slog.LevelError, "INFO": slog.LevelInfo,
		} {
			if c, err := parse("-log-level", in); err != nil || c.LogLevel != want {
				t.Errorf("-log-level %s: %v, %v; want %v", in, c.LogLevel, err, want)
			}
		}
		for _, in := range []string{"loud", "INFO+2", ""} {
			if _, err := parse("-log-level", in); err == nil {
				t.Errorf("-log-level %q accepted, want an error", in)
			}
		}
	})
}

func TestNewRequestID(t *testing.T) {
	a, b := newRequestID(), newRequestID()
	if a == b {
		t.Fatal("request IDs must be unique")
	}
	if _, err := hex.DecodeString(a); err != nil || len(a) != 16 {
		t.Fatalf("request ID %q, want 16 hex chars", a)
	}
}

// TestMiddlewareWithoutLogger: a Middleware with no Logger set logs through
// a discarding one, on the slow-request warn path and the debug-level check
// alike.
func TestMiddlewareWithoutLogger(t *testing.T) {
	for _, mw := range []Middleware{
		{},
		{Tracer: obs.NewTracer(1, 16)},
		{Tracer: obs.NewTracer(1, 16), Slow: time.Nanosecond},
	} {
		h := Handler(http.NotFoundHandler(), 1<<10, mw)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
		if rec.Code != http.StatusNotFound || rec.Header().Get("X-Request-Id") == "" {
			t.Errorf("%+v: status %d, X-Request-Id %q", mw, rec.Code, rec.Header().Get("X-Request-Id"))
		}
	}
}
