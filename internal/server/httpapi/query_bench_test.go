package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// benchIngestBody pre-marshals one deterministic ingest batch.
func benchIngestBody(b *testing.B, n, dim int, seed int64) []byte {
	b.Helper()
	body, err := json.Marshal(batch(blobs(n, dim, seed)))
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func benchPost(b *testing.B, url string, body []byte) {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

func benchGet(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
}

// newBenchDaemon starts an in-memory daemon with one seeded stream.
func newBenchDaemon(b *testing.B) (ts *httptest.Server, streamURL string) {
	b.Helper()
	ts = httptest.NewServer(newServer(config{k: 8, budget: 64, workers: 1}).routes())
	b.Cleanup(ts.Close)
	streamURL = ts.URL + "/streams/bench"
	benchPost(b, streamURL+"/points", benchIngestBody(b, 500, 8, 1))
	return ts, streamURL
}

// reportPercentiles attaches p50/p99 of the recorded per-query latencies to
// the benchmark line: means are dominated by the occasional query that lands
// mid-batch.
func reportPercentiles(b *testing.B, lat []time.Duration) {
	b.Helper()
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
}

// BenchmarkQueryCentersIdle is the no-load baseline on the cache-miss path:
// each iteration bumps the stream's version off the clock, so every timed
// GET /centers runs a real extraction against a fresh view.
func BenchmarkQueryCentersIdle(b *testing.B) {
	_, url := newBenchDaemon(b)
	body := benchIngestBody(b, 100, 8, 2)
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchPost(b, url+"/points", body)
		b.StartTimer()
		t0 := time.Now()
		benchGet(b, url+"/centers")
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	reportPercentiles(b, lat)
}

// BenchmarkQueryCentersUnderIngest measures GET /centers while a writer
// streams 100-point batches at up to ~1 kHz into the same stream. Reads come
// back to back and the writer publishes a new version at most once a
// millisecond, so most reads land on a version an earlier read already
// extracted: the p50 is mostly the view memo's hit latency beside a busy
// writer, below the idle all-miss baseline. It does not show that reads
// avoid the ingest mutex; TestReadsDoNotTakeIngestMutex pins that.
func BenchmarkQueryCentersUnderIngest(b *testing.B) {
	_, url := newBenchDaemon(b)
	body := benchIngestBody(b, 100, 8, 3)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(url+"/points", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(time.Millisecond)
		}
	}()
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		benchGet(b, url+"/centers")
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	<-done
	reportPercentiles(b, lat)
}

// BenchmarkQueryCentersCacheHit measures the steady-state read path at a
// frozen version: after the first query primes the view's memo, every later
// query is a cache hit (no extraction at all) — the floor the versioned
// cache buys for dashboards polling an idle stream.
func BenchmarkQueryCentersCacheHit(b *testing.B) {
	_, url := newBenchDaemon(b)
	benchGet(b, url+"/centers") // prime the view's memo
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		benchGet(b, url+"/centers")
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	reportPercentiles(b, lat)
}
