package httpapi

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coresetclustering/internal/obs"
	"coresetclustering/internal/persist"
)

// tracedDaemon is a durable in-process daemon with tracing wired exactly as
// run() wires it: the store's hooks come from srv.eng.PersistHooks() so the
// group-commit wait is attributed, and the debug mux carries the tracer.
type tracedDaemon struct {
	srv   *server
	http  *httptest.Server
	debug *httptest.Server
	log   *lockedBuf
}

func newTracedDaemon(t *testing.T, cfg config) *tracedDaemon {
	t.Helper()
	srv := newServer(cfg)
	buf := &lockedBuf{}
	srv.eng.Logger = slog.New(slog.NewTextHandler(buf, nil))
	store, err := persist.Open(t.TempDir(), persist.Options{
		Fsync: persist.FsyncAlways,
		Hooks: srv.eng.PersistHooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv.eng.Store = store
	d := &tracedDaemon{
		srv:   srv,
		http:  httptest.NewServer(srv.routes()),
		debug: httptest.NewServer(debugRoutes(srv.eng.Tracer)),
		log:   buf,
	}
	t.Cleanup(d.http.Close)
	t.Cleanup(d.debug.Close)
	return d
}

// fetchDetail pulls one trace's span tree from the debug surface.
func (d *tracedDaemon) fetchDetail(t *testing.T, id string) (obs.TraceDetail, int) {
	t.Helper()
	resp, err := http.Get(d.debug.URL + "/debug/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var detail obs.TraceDetail
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
			t.Fatalf("decoding trace detail: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return detail, resp.StatusCode
}

// TestTracedRequestEndToEnd is the acceptance path for the tracing layer: a
// slow ingest against a real durable daemon (group-commit fsync=always) must
// produce a warn log carrying a trace ID whose /debug/traces/{id} span tree
// holds the decode, journal (with the group-commit wait), apply and publish
// stages, with stage durations summing to within the root span.
func TestTracedRequestEndToEnd(t *testing.T) {
	// Sampling is effectively off (1 in 2^30): retention must come from the
	// forced slow capture and the caller's sampled traceparent flag alone.
	d := newTracedDaemon(t, config{k: 2, budget: 16, Common: Common{SlowRequest: time.Nanosecond, TraceSample: 1 << 30}})

	const caller = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	const callerID = "0af7651916cd43dd8448eb211c80319c"
	req, err := http.NewRequest("POST", d.http.URL+"/streams/e2e/points",
		strings.NewReader(`{"points":[[1,2],[3,4],[5,6]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", caller)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-ID"); got != callerID {
		t.Fatalf("X-Trace-ID %q, want the caller's trace ID %q", got, callerID)
	}

	// The slow-request warn log answers "where did the time go" on its own:
	// trace ID plus the per-stage breakdown.
	logLine := d.log.String()
	if !strings.Contains(logLine, `msg="slow request"`) || !strings.Contains(logLine, "traceId="+callerID) {
		t.Fatalf("slow log %q missing the trace ID", logLine)
	}
	if !strings.Contains(logLine, "stages=") || !strings.Contains(logLine, "journal=") {
		t.Fatalf("slow log %q missing the stage breakdown", logLine)
	}

	detail, status := d.fetchDetail(t, callerID)
	if status != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: status %d", callerID, status)
	}
	if detail.RemoteParent != "b7ad6b7169203331" {
		t.Errorf("remote parent %q, want the caller's span ID", detail.RemoteParent)
	}
	if detail.Name != "POST /streams/{name}/points" {
		t.Errorf("trace name %q, want the routed pattern", detail.Name)
	}
	if detail.Root == nil {
		t.Fatal("trace detail has no span tree")
	}
	rootDur, err := time.ParseDuration(detail.Root.Duration)
	if err != nil || rootDur <= 0 {
		t.Fatalf("root duration %q unparseable or non-positive", detail.Root.Duration)
	}
	stages := make(map[string]time.Duration, len(detail.Root.Children))
	var sum time.Duration
	for _, child := range detail.Root.Children {
		dur, err := time.ParseDuration(child.Duration)
		if err != nil {
			t.Fatalf("stage %s duration %q: %v", child.Name, child.Duration, err)
		}
		stages[child.Name] = dur
		sum += dur
	}
	for _, want := range []string{"decode", "validate", "journal", "wal.wait", "apply", "publish"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("span tree stages %v missing %q", stages, want)
		}
	}
	if sum > rootDur {
		t.Errorf("stage durations sum to %v, beyond the root span %v", sum, rootDur)
	}

	// The list endpoint finds the trace by route substring and duration.
	resp, err = http.Get(d.debug.URL + "/debug/traces?route=points&minDur=1ns")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, tr := range list.Traces {
		if tr.ID == callerID {
			found = true
			if tr.Forced == "" {
				t.Error("trace retained without a forced/sampled mark")
			}
		}
	}
	if !found {
		t.Fatalf("/debug/traces?route=points does not list trace %s: %+v", callerID, list.Traces)
	}
	if _, status := d.fetchDetail(t, strings.Repeat("0", 32)); status != http.StatusNotFound {
		t.Errorf("unknown trace ID: status %d, want 404", status)
	}
}

// TestTraceparentMalformedGetsFreshTrace: a malformed inbound header must not
// be echoed back — the daemon answers with a fresh local trace ID.
func TestTraceparentMalformedGetsFreshTrace(t *testing.T) {
	d := newTracedDaemon(t, config{k: 2, budget: 16, Common: Common{SlowRequest: time.Nanosecond, TraceSample: 1 << 30}})
	req, err := http.NewRequest("POST", d.http.URL+"/streams/m/points",
		strings.NewReader(`{"points":[[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-ZZZ7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Trace-ID")
	if len(id) != 32 || strings.Contains(id, "Z") {
		t.Fatalf("X-Trace-ID %q is not a fresh 32-hex trace ID", id)
	}
	if _, status := d.fetchDetail(t, id); status != http.StatusOK {
		t.Fatalf("fresh trace %s not retrievable: status %d", id, status)
	}
}

// TestUnsampledFastRequestNotRetained: with sampling effectively off and no
// slow threshold, an ordinary request still gets a trace ID on the wire but
// the trace is not kept — recording is per-request, retention is not.
func TestUnsampledFastRequestNotRetained(t *testing.T) {
	d := newTracedDaemon(t, config{k: 2, budget: 16, Common: Common{TraceSample: 1 << 30}})
	// Burn sampler slot 0, which is always sampled.
	resp := doJSON(t, "POST", d.http.URL+"/streams/warm/points", batch(blobs(2, 2, 1)), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", d.http.URL+"/streams/warm/points", batch(blobs(2, 2, 2)), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-ID")
	if len(id) != 32 {
		t.Fatalf("X-Trace-ID %q missing on an unsampled request", id)
	}
	if _, status := d.fetchDetail(t, id); status != http.StatusNotFound {
		t.Errorf("unsampled fast trace %s was retained: status %d, want 404", id, status)
	}
}

// TestTracesEndpointWithTracingDisabled: -trace-buffer 0 turns the tracer
// off; the debug endpoints answer 404 instead of panicking, and requests
// carry no X-Trace-ID.
func TestTracesEndpointWithTracingDisabled(t *testing.T) {
	srv := newServer(config{k: 2, budget: 16, Common: Common{TraceBuffer: -1}})
	if srv.eng.Tracer != nil {
		t.Fatal("negative traceBuffer must disable the tracer")
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	debug := httptest.NewServer(debugRoutes(srv.eng.Tracer))
	t.Cleanup(debug.Close)
	resp := doJSON(t, "POST", ts.URL+"/streams/x/points", batch(blobs(2, 2, 1)), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-ID"); got != "" {
		t.Errorf("X-Trace-ID %q present with tracing disabled", got)
	}
	for _, path := range []string{"/debug/traces", "/debug/traces/" + strings.Repeat("0", 32)} {
		r, err := http.Get(debug.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with tracing disabled: status %d, want 404", path, r.StatusCode)
		}
	}
}
