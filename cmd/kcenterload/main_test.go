package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeDaemon is a minimal kcenterd stand-in: it counts batches per
// Content-Type, sanity-checks each body's shape, and acks with a 200.
type fakeDaemon struct {
	jsonBatches   atomic.Int64
	binaryBatches atomic.Int64
	badBodies     atomic.Int64
}

func (f *fakeDaemon) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.Header.Get("Content-Type") {
		case "application/x-kcenter-flat":
			if len(body) < 20 || string(body[:4]) != "KCFL" {
				f.badBodies.Add(1)
				http.Error(w, "bad frame", http.StatusBadRequest)
				return
			}
			f.binaryBatches.Add(1)
		case "application/json":
			var req struct {
				Points     [][]float64 `json:"points"`
				Timestamps []int64     `json:"timestamps"`
			}
			if err := json.Unmarshal(body, &req); err != nil || len(req.Points) == 0 {
				f.badBodies.Add(1)
				http.Error(w, "bad json", http.StatusBadRequest)
				return
			}
			f.jsonBatches.Add(1)
		default:
			f.badBodies.Add(1)
			http.Error(w, "bad content type", http.StatusUnsupportedMediaType)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Trace-ID", "0af7651916cd43dd8448eb211c80319c")
		w.Write([]byte(`{"observed": 1}`))
	})
}

func TestLoadRunBothProtocols(t *testing.T) {
	for _, proto := range []string{"json", "binary"} {
		t.Run(proto, func(t *testing.T) {
			fake := &fakeDaemon{}
			srv := httptest.NewServer(fake.handler())
			t.Cleanup(srv.Close)
			addr := strings.TrimPrefix(srv.URL, "http://")

			var out bytes.Buffer
			err := run(context.Background(), []string{
				"-addr", addr, "-proto", proto, "-batch", "16", "-dim", "3",
				"-concurrency", "3", "-batches", "20", "-json",
			}, &out)
			if err != nil {
				t.Fatalf("run: %v\noutput: %s", err, out.String())
			}
			var rep report
			if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
				t.Fatalf("report is not one JSON object: %v\n%s", err, out.String())
			}
			if rep.Batches != 20 || rep.Points != 20*16 {
				t.Errorf("report: %d batches / %d points, want 20 / 320", rep.Batches, rep.Points)
			}
			if rep.Errors != 0 || rep.PointsPerSec <= 0 {
				t.Errorf("report: errors=%d pointsPerSec=%f", rep.Errors, rep.PointsPerSec)
			}
			if rep.LatencyMsP50 <= 0 || rep.LatencyMsP99 < rep.LatencyMsP50 {
				t.Errorf("latency percentiles inconsistent: p50=%f p99=%f", rep.LatencyMsP50, rep.LatencyMsP99)
			}
			// Every ack carried an X-Trace-ID, so the slowest-traces table
			// must be full and sorted worst-first.
			if len(rep.Slowest) != topSlow {
				t.Errorf("slowest table has %d entries, want %d", len(rep.Slowest), topSlow)
			}
			for i, s := range rep.Slowest {
				if len(s.TraceID) != 32 {
					t.Errorf("slowest[%d] trace ID %q is not 32 hex chars", i, s.TraceID)
				}
				if s.LatencyMs <= 0 {
					t.Errorf("slowest[%d] latency %f not positive", i, s.LatencyMs)
				}
				if i > 0 && s.LatencyMs > rep.Slowest[i-1].LatencyMs {
					t.Errorf("slowest not sorted worst-first: [%d]=%f after [%d]=%f",
						i, s.LatencyMs, i-1, rep.Slowest[i-1].LatencyMs)
				}
			}
			got := fake.jsonBatches.Load() + fake.binaryBatches.Load()
			if got != 20 || fake.badBodies.Load() != 0 {
				t.Errorf("server saw %d good / %d bad batches, want 20 / 0", got, fake.badBodies.Load())
			}
			if proto == "json" && fake.jsonBatches.Load() != 20 {
				t.Errorf("json run sent %d JSON batches", fake.jsonBatches.Load())
			}
			if proto == "binary" && fake.binaryBatches.Load() != 20 {
				t.Errorf("binary run sent %d binary batches", fake.binaryBatches.Load())
			}
		})
	}
}

func TestLoadRunRateBoundsThroughput(t *testing.T) {
	fake := &fakeDaemon{}
	srv := httptest.NewServer(fake.handler())
	t.Cleanup(srv.Close)
	addr := strings.TrimPrefix(srv.URL, "http://")

	var out bytes.Buffer
	// 20 batches at 100 batches/s must take ~200ms.
	err := run(context.Background(), []string{
		"-addr", addr, "-batches", "20", "-rate", "100",
		"-concurrency", "2", "-batch", "4", "-dim", "2", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ElapsedSec < 0.15 {
		t.Errorf("rate-limited run finished in %.3fs, want ≥0.15s", rep.ElapsedSec)
	}
	if rep.BatchesPerSec > 140 {
		t.Errorf("rate-limited run averaged %.1f batches/s, want ≤~100", rep.BatchesPerSec)
	}
}

func TestLoadFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-proto", "msgpack"},
		{"-batch", "0"},
		{"-concurrency", "-1"},
		{"-rate", "-5"},
		{"-batches", "0", "-duration", "0s"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted invalid flags", args)
		}
	}
}

// TestLoadReportsServerError: a run that saw a batch error fails, after
// printing its report, whether no batch was acked (every one answered 500) or
// some were (one in five).
func TestLoadReportsServerError(t *testing.T) {
	for _, every := range []int64{1, 5} {
		var seen atomic.Int64
		fake := &fakeDaemon{}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if seen.Add(1)%every == 0 {
				http.Error(w, `{"error":"boom","code":"internal"}`, http.StatusInternalServerError)
				return
			}
			fake.handler().ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		addr := strings.TrimPrefix(srv.URL, "http://")
		var out bytes.Buffer
		err := run(context.Background(), []string{"-addr", addr, "-batches", "20", "-concurrency", "2", "-json"}, &out)
		if err == nil || !strings.Contains(err.Error(), "status 500") {
			t.Fatalf("500 in every %d batches: run returned %v, want a status-500 error", every, err)
		}
		var rep report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil || rep.Errors == 0 || (rep.Batches > 0) != (every > 1) {
			t.Errorf("500 in every %d batches: report %+v (%v)", every, rep, err)
		}
	}
}

// TestLoadWindowedTrailer checks the windowed binary encoding carries the
// KCTS trailer with one timestamp per point.
func TestLoadWindowedTrailer(t *testing.T) {
	var sawTrailer atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		// 16 points of dim 2: 20-byte header + 256 payload + 4 magic + 128 ts.
		if len(body) == 20+16*2*8+4+16*8 && string(body[20+256:20+260]) == "KCTS" {
			sawTrailer.Store(true)
		}
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)
	addr := strings.TrimPrefix(srv.URL, "http://")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", addr, "-proto", "binary", "-window", "100",
		"-batches", "2", "-batch", "16", "-dim", "2", "-concurrency", "1", "-json",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !sawTrailer.Load() {
		t.Error("windowed binary batches carried no KCTS trailer")
	}
}

// TestLoadTargetsSumToAggregate spreads a run over two fake daemons: each
// target's batches match what its daemon acked, and the per-target batches,
// points and errors sum to the aggregate, also when one target fails.
func TestLoadTargetsSumToAggregate(t *testing.T) {
	for _, failB := range []bool{false, true} {
		a, b := &fakeDaemon{}, &fakeDaemon{}
		srvA := httptest.NewServer(a.handler())
		t.Cleanup(srvA.Close)
		srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if failB {
				http.Error(w, `{"error":"boom","code":"internal"}`, http.StatusInternalServerError)
				return
			}
			b.handler().ServeHTTP(w, r)
		}))
		t.Cleanup(srvB.Close)
		addrA := strings.TrimPrefix(srvA.URL, "http://")
		addrB := strings.TrimPrefix(srvB.URL, "http://")

		var out bytes.Buffer
		err := run(context.Background(), []string{
			"-targets", addrA + "," + addrB, "-batch", "8", "-dim", "2",
			"-concurrency", "3", "-batches", "20", "-json",
		}, &out)
		if (err != nil) != failB {
			t.Fatalf("failB=%v: run returned %v\noutput: %s", failB, err, out.String())
		}
		var rep report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("report is not one JSON object: %v\n%s", err, out.String())
		}
		if len(rep.Targets) != 2 || rep.Targets[0].Target != addrA || rep.Targets[1].Target != addrB {
			t.Fatalf("failB=%v: per-target breakdown %+v, want %s then %s", failB, rep.Targets, addrA, addrB)
		}
		var batches, points, errs int64
		for _, tr := range rep.Targets {
			batches += tr.Batches
			points += tr.Points
			errs += tr.Errors
		}
		if batches != rep.Batches || points != rep.Points || errs != rep.Errors {
			t.Errorf("failB=%v: targets sum to %d batches / %d points / %d errors, aggregate %d / %d / %d",
				failB, batches, points, errs, rep.Batches, rep.Points, rep.Errors)
		}
		if got := a.jsonBatches.Load() + a.binaryBatches.Load(); rep.Targets[0].Batches != got || got == 0 {
			t.Errorf("failB=%v: target A reports %d batches, its daemon acked %d", failB, rep.Targets[0].Batches, got)
		}
		if got := b.jsonBatches.Load() + b.binaryBatches.Load(); rep.Targets[1].Batches != got {
			t.Errorf("failB=%v: target B reports %d batches, its daemon acked %d", failB, rep.Targets[1].Batches, got)
		}
		if !failB && rep.Batches != 20 {
			t.Errorf("failB=false: %d batches acked, want 20", rep.Batches)
		}
		if failB && (rep.Errors == 0 || rep.Targets[1].Errors != rep.Errors) {
			t.Errorf("failB=true: %d errors, %d of them on B; want every error on B", rep.Errors, rep.Targets[1].Errors)
		}
	}
}
