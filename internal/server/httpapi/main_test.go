package httpapi

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/server/engine"
)

func newTestServer(t *testing.T, cfg config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(cfg).routes())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

func batch(points kcenter.Dataset) ingestRequest { return ingestRequest{Points: points} }

func blobs(n, dim int, seed int64) kcenter.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := make(kcenter.Dataset, n)
	for i := range out {
		p := make(kcenter.Point, dim)
		blob := float64(rng.Intn(5)) * 100
		for j := range p {
			p[j] = blob + rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

func TestIngestAndCenters(t *testing.T) {
	// budget deliberately != 8*(k+z): new streams must inherit the daemon's
	// configured default, not the derived fallback.
	ts := newTestServer(t, config{k: 3, budget: 30})
	var stats engine.StreamStats
	resp := doJSON(t, "POST", ts.URL+"/streams/demo/points", batch(blobs(500, 2, 1)), &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if stats.Observed != 500 || stats.K != 3 || stats.Budget != 30 {
		t.Errorf("unexpected stats: %+v", stats)
	}
	if stats.WorkingMemory > 30 {
		t.Errorf("working memory %d exceeds budget", stats.WorkingMemory)
	}
	var centers centersResponse
	resp = doJSON(t, "GET", ts.URL+"/streams/demo/centers", nil, &centers)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("centers status %d", resp.StatusCode)
	}
	if len(centers.Centers) != 3 {
		t.Errorf("got %d centers, want 3", len(centers.Centers))
	}
}

func TestStreamParamsFromQuery(t *testing.T) {
	ts := newTestServer(t, config{k: 3, budget: 24})
	var stats engine.StreamStats
	doJSON(t, "POST", ts.URL+"/streams/custom/points?k=5&z=2&budget=70", batch(blobs(100, 2, 2)), &stats)
	if stats.K != 5 || stats.Z != 2 || stats.Budget != 70 {
		t.Errorf("query params ignored: %+v", stats)
	}
}

// TestConcurrentIngest hammers one stream from many goroutines (exercised
// under -race in CI): every point must be observed exactly once, and
// concurrent snapshot/centers calls must not corrupt the stream.
func TestConcurrentIngest(t *testing.T) {
	ts := newTestServer(t, config{k: 4, budget: 40})
	const (
		goroutines = 8
		batches    = 10
		perBatch   = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				body, _ := json.Marshal(batch(blobs(perBatch, 3, int64(g*1000+b))))
				resp, err := http.Post(ts.URL+"/streams/shared/points", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	// Interleave reads and snapshots with the ingest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Post(ts.URL+"/streams/shared/snapshot", "application/octet-stream", nil)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()

	var stats centersResponse
	doJSON(t, "GET", ts.URL+"/streams/shared/centers", nil, &stats)
	if want := int64(goroutines * batches * perBatch); stats.Observed != want {
		t.Errorf("observed %d points, want %d", stats.Observed, want)
	}
	if len(stats.Centers) != 4 {
		t.Errorf("got %d centers, want 4", len(stats.Centers))
	}
}

// TestShardedMergeFlow drives the daemon the way a coordinator would: two
// shard streams, snapshot both over HTTP, merge, and check the merged
// summary accounts for every point.
func TestShardedMergeFlow(t *testing.T) {
	ts := newTestServer(t, config{k: 4, budget: 64})
	doJSON(t, "POST", ts.URL+"/streams/shard0/points", batch(blobs(600, 2, 10)), nil)
	doJSON(t, "POST", ts.URL+"/streams/shard1/points", batch(blobs(400, 2, 11)), nil)

	snapshot := func(name string) []byte {
		resp, err := http.Post(ts.URL+"/streams/"+name+"/snapshot", "application/octet-stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot %s: status %d", name, resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	s0, s1 := snapshot("shard0"), snapshot("shard1")

	var merged mergeResponse
	resp := doJSON(t, "POST", ts.URL+"/merge", mergeRequest{Sketches: []string{
		base64.StdEncoding.EncodeToString(s0),
		base64.StdEncoding.EncodeToString(s1),
	}}, &merged)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merge status %d", resp.StatusCode)
	}
	if merged.Observed != 1000 {
		t.Errorf("merged sketch observed %d, want 1000", merged.Observed)
	}
	if len(merged.Centers) != 4 {
		t.Errorf("merged centers %d, want 4", len(merged.Centers))
	}

	// The merged sketch must be restorable as a live stream.
	mergedBlob, err := base64.StdEncoding.DecodeString(merged.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/streams/global/restore", bytes.NewReader(mergedBlob))
	if err != nil {
		t.Fatal(err)
	}
	restoreResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var restored engine.StreamStats
	if err := json.NewDecoder(restoreResp.Body).Decode(&restored); err != nil {
		t.Fatal(err)
	}
	restoreResp.Body.Close()
	if restored.Observed != 1000 {
		t.Errorf("restored stream observed %d, want 1000", restored.Observed)
	}
	// And it keeps ingesting.
	var after engine.StreamStats
	doJSON(t, "POST", ts.URL+"/streams/global/points", batch(blobs(10, 2, 12)), &after)
	if after.Observed != 1010 {
		t.Errorf("restored stream observed %d after ingest, want 1010", after.Observed)
	}
}

func TestListAndDelete(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 16})
	doJSON(t, "POST", ts.URL+"/streams/a/points", batch(blobs(10, 2, 20)), nil)
	doJSON(t, "POST", ts.URL+"/streams/b/points", batch(blobs(10, 2, 21)), nil)
	var list struct {
		Streams []engine.StreamStats `json:"streams"`
	}
	doJSON(t, "GET", ts.URL+"/streams", nil, &list)
	if len(list.Streams) != 2 || list.Streams[0].Name != "a" || list.Streams[1].Name != "b" {
		t.Errorf("unexpected listing: %+v", list.Streams)
	}
	if resp := doJSON(t, "DELETE", ts.URL+"/streams/a", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("delete status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "DELETE", ts.URL+"/streams/a", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("second delete status %d, want 404", resp.StatusCode)
	}
}

func TestErrorResponses(t *testing.T) {
	ts := newTestServer(t, config{k: 3, budget: 24})
	cases := []struct {
		name   string
		do     func() *http.Response
		status int
	}{
		{"centers-of-unknown-stream", func() *http.Response {
			return doJSON(t, "GET", ts.URL+"/streams/nope/centers", nil, nil)
		}, http.StatusNotFound},
		{"snapshot-of-unknown-stream", func() *http.Response {
			return doJSON(t, "POST", ts.URL+"/streams/nope/snapshot", nil, nil)
		}, http.StatusNotFound},
		{"invalid-json", func() *http.Response {
			resp, err := http.Post(ts.URL+"/streams/x/points", "application/json", bytes.NewReader([]byte("{")))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}, http.StatusBadRequest},
		{"empty-batch", func() *http.Response {
			return doJSON(t, "POST", ts.URL+"/streams/x/points", batch(nil), nil)
		}, http.StatusBadRequest},
		{"out-of-range-number", func() *http.Response {
			resp, err := http.Post(ts.URL+"/streams/x/points", "application/json",
				bytes.NewReader([]byte(`{"points": [[1, 1e999]]}`)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}, http.StatusBadRequest},
		{"restore-garbage", func() *http.Response {
			resp, err := http.Post(ts.URL+"/streams/x/restore", "application/octet-stream",
				bytes.NewReader([]byte("definitely not a sketch")))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}, http.StatusBadRequest},
		{"merge-nothing", func() *http.Response {
			return doJSON(t, "POST", ts.URL+"/merge", mergeRequest{}, nil)
		}, http.StatusBadRequest},
		{"merge-bad-base64", func() *http.Response {
			return doJSON(t, "POST", ts.URL+"/merge", mergeRequest{Sketches: []string{"!!!"}}, nil)
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if resp := tc.do(); resp.StatusCode != tc.status {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}
}

func TestDimensionMismatchRejected(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 16})
	doJSON(t, "POST", ts.URL+"/streams/d/points", batch(kcenter.Dataset{{1, 2}, {3, 4}}), nil)
	resp := doJSON(t, "POST", ts.URL+"/streams/d/points", batch(kcenter.Dataset{{1, 2, 3}}), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched batch status %d, want 400", resp.StatusCode)
	}
	// In-batch mismatch too.
	resp = doJSON(t, "POST", ts.URL+"/streams/d/points", batch(kcenter.Dataset{{1, 2}, {3}}), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ragged batch status %d, want 400", resp.StatusCode)
	}
}

// TestRunGracefulShutdown boots the real daemon on an ephemeral port and
// checks that cancelling the context shuts it down cleanly.
func TestRunGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, []string{"-addr", "127.0.0.1:0", "-k", "2"}, io.Discard)
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down within 5s")
	}
}

func TestRunRejectsUnknownDistance(t *testing.T) {
	err := Run(context.Background(), []string{"-distance", "warp"}, io.Discard)
	if err == nil {
		t.Fatal("run accepted an unknown distance")
	}
	if got := fmt.Sprint(err); got == "" {
		t.Error("empty error")
	}
}

// --- sliding-window streams ---

func TestWindowStreamLifecycle(t *testing.T) {
	ts := newTestServer(t, config{k: 3, budget: 36, dist: "euclidean"})
	// Create a count-window stream and overfill it.
	var stats engine.StreamStats
	resp := doJSON(t, "POST", ts.URL+"/streams/win/points?window=200", batch(blobs(1000, 2, 30)), &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if stats.Window == nil {
		t.Fatal("ingest response carries no window stats")
	}
	if stats.Window.Size != 200 || stats.Observed != 1000 {
		t.Errorf("unexpected stats: %+v", stats)
	}
	if stats.Window.LivePoints >= 1000 || stats.Window.LivePoints < 200 {
		t.Errorf("live points %d, want within [200, 1000)", stats.Window.LivePoints)
	}
	if stats.Window.LiveBuckets < 1 {
		t.Errorf("live buckets %d", stats.Window.LiveBuckets)
	}
	if stats.Space != "euclidean" {
		t.Errorf("space %q, want euclidean", stats.Space)
	}

	// The introspection endpoint reports the same state.
	var got engine.StreamStats
	resp = doJSON(t, "GET", ts.URL+"/streams/win/stats", nil, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if got.Observed != stats.Observed || got.Window == nil || got.Window.LivePoints != stats.Window.LivePoints {
		t.Errorf("stats endpoint disagrees with ingest response: %+v vs %+v", got, stats)
	}

	// Centers answer over the live window.
	var centers centersResponse
	if resp := doJSON(t, "GET", ts.URL+"/streams/win/centers", nil, &centers); resp.StatusCode != http.StatusOK {
		t.Fatalf("centers status %d", resp.StatusCode)
	}
	if len(centers.Centers) != 3 {
		t.Errorf("got %d centers, want 3", len(centers.Centers))
	}
}

func TestWindowStreamStatsForPlainStream(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 16, dist: "manhattan"})
	doJSON(t, "POST", ts.URL+"/streams/plain/points", batch(blobs(50, 2, 31)), nil)
	var got engine.StreamStats
	doJSON(t, "GET", ts.URL+"/streams/plain/stats", nil, &got)
	if got.Window != nil {
		t.Errorf("plain stream reports window stats: %+v", got.Window)
	}
	if got.Space != "manhattan" {
		t.Errorf("space %q, want manhattan", got.Space)
	}
	if resp := doJSON(t, "GET", ts.URL+"/streams/nope/stats", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("stats of unknown stream: status %d, want 404", resp.StatusCode)
	}
}

func TestWindowTimestampedIngestAndEviction(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 24, dist: "euclidean"})
	ingest := func(pts kcenter.Dataset, stamps []int64) (*http.Response, engine.StreamStats, errorResponse) {
		body, _ := json.Marshal(ingestRequest{Points: pts, Timestamps: stamps})
		resp, err := http.Post(ts.URL+"/streams/tw/points?windowDur=100", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var st engine.StreamStats
		var er errorResponse
		json.Unmarshal(raw, &st)
		json.Unmarshal(raw, &er)
		return resp, st, er
	}
	pts := blobs(100, 2, 32)
	stamps := make([]int64, 100)
	for i := range stamps {
		stamps[i] = int64(i)
	}
	if resp, st, _ := ingest(pts, stamps); resp.StatusCode != http.StatusOK || st.Window == nil || st.Window.Duration != 100 {
		t.Fatalf("timestamped ingest: status %d stats %+v", resp.StatusCode, st)
	}
	// A second batch far in the future evicts the first, except for the few
	// stale points sharing the still-open bucket with the new arrivals
	// (whole-bucket eviction keeps an open bucket live until it seals).
	future := []int64{5_000, 5_001}
	if resp, st, _ := ingest(pts[:2], future); resp.StatusCode != http.StatusOK ||
		st.Window.LivePoints < 2 || st.Window.LivePoints > 24 {
		t.Fatalf("eviction after time jump: status %d live %d, want a handful", resp.StatusCode, st.Window.LivePoints)
	}
	// Stale timestamps are rejected atomically with a typed code.
	resp, _, er := ingest(pts[:2], []int64{10, 11})
	if resp.StatusCode != http.StatusBadRequest || er.Code != engine.CodeInvalidTimestamps {
		t.Fatalf("stale batch: status %d code %q", resp.StatusCode, er.Code)
	}
	// Unsorted and miscounted timestamp arrays too.
	if resp, _, er := ingest(pts[:2], []int64{6_000, 5_999}); resp.StatusCode != http.StatusBadRequest || er.Code != engine.CodeInvalidTimestamps {
		t.Fatalf("unsorted stamps: status %d code %q", resp.StatusCode, er.Code)
	}
	if resp, _, er := ingest(pts[:2], []int64{6_000}); resp.StatusCode != http.StatusBadRequest || er.Code != engine.CodeInvalidTimestamps {
		t.Fatalf("miscounted stamps: status %d code %q", resp.StatusCode, er.Code)
	}
	// The rejected batches must not have moved the stream.
	var st engine.StreamStats
	doJSON(t, "GET", ts.URL+"/streams/tw/stats", nil, &st)
	if st.Observed != 102 {
		t.Errorf("observed %d after rejected batches, want 102", st.Observed)
	}
	// Timestamps on a non-window stream are a typed 400.
	body, _ := json.Marshal(ingestRequest{Points: pts[:1], Timestamps: []int64{1}})
	resp2, err := http.Post(ts.URL+"/streams/plainstream/points", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er2 errorResponse
	json.NewDecoder(resp2.Body).Decode(&er2)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest || er2.Code != engine.CodeNotWindowed {
		t.Errorf("timestamps on plain stream: status %d code %q", resp2.StatusCode, er2.Code)
	}
}

func TestWindowSnapshotRestoreHTTP(t *testing.T) {
	ts := newTestServer(t, config{k: 3, budget: 36, dist: "euclidean"})
	doJSON(t, "POST", ts.URL+"/streams/w/points?window=150", batch(blobs(600, 2, 33)), nil)

	resp, err := http.Post(ts.URL+"/streams/w/snapshot", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d err %v", resp.StatusCode, err)
	}

	req, _ := http.NewRequest("POST", ts.URL+"/streams/w2/restore", bytes.NewReader(blob))
	restoreResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var restored engine.StreamStats
	json.NewDecoder(restoreResp.Body).Decode(&restored)
	restoreResp.Body.Close()
	if restoreResp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", restoreResp.StatusCode)
	}
	if restored.Window == nil || restored.Window.Size != 150 || restored.Observed != 600 {
		t.Errorf("restored window stats: %+v", restored)
	}

	// Both streams answer with identical centers.
	var c1, c2 centersResponse
	doJSON(t, "GET", ts.URL+"/streams/w/centers", nil, &c1)
	doJSON(t, "GET", ts.URL+"/streams/w2/centers", nil, &c2)
	if len(c1.Centers) != len(c2.Centers) {
		t.Fatalf("center counts differ: %d vs %d", len(c1.Centers), len(c2.Centers))
	}
	for i := range c1.Centers {
		if !c1.Centers[i].Equal(c2.Centers[i]) {
			t.Errorf("center %d differs after restore", i)
		}
	}
	// The restored stream keeps ingesting.
	var after engine.StreamStats
	doJSON(t, "POST", ts.URL+"/streams/w2/points", batch(blobs(10, 2, 34)), &after)
	if after.Observed != 610 {
		t.Errorf("restored stream observed %d, want 610", after.Observed)
	}
	// Window sketches cannot be merged: the refusal is the typed
	// incompatibility (kcenter.ErrMergeIncompatible), surfaced as 502
	// shard_incompatible so a cluster operator can tell "these shards
	// disagree" apart from "these bytes are garbage" (400 bad_sketch).
	var er errorResponse
	mresp := doJSON(t, "POST", ts.URL+"/merge", mergeRequest{Sketches: []string{
		base64.StdEncoding.EncodeToString(blob),
		base64.StdEncoding.EncodeToString(blob),
	}}, &er)
	if mresp.StatusCode != http.StatusBadGateway || er.Code != engine.CodeShardIncompatible {
		t.Errorf("merging window sketches: status %d code %q", mresp.StatusCode, er.Code)
	}
}

// TestWindowConcurrentIngest hammers one window stream from many goroutines
// (exercised under -race in CI): every point must be observed exactly once,
// eviction and coalescing must stay consistent under interleaved snapshots,
// stats and centers calls.
func TestWindowConcurrentIngest(t *testing.T) {
	ts := newTestServer(t, config{k: 4, budget: 40, dist: "euclidean"})
	const (
		goroutines = 8
		batches    = 10
		perBatch   = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				body, _ := json.Marshal(batch(blobs(perBatch, 3, int64(g*1000+b))))
				resp, err := http.Post(ts.URL+"/streams/wshared/points?window=500", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			for _, path := range []string{"/streams/wshared/stats", "/streams/wshared/centers"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			resp, err := http.Post(ts.URL+"/streams/wshared/snapshot", "application/octet-stream", nil)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()

	var stats engine.StreamStats
	doJSON(t, "GET", ts.URL+"/streams/wshared/stats", nil, &stats)
	if want := int64(goroutines * batches * perBatch); stats.Observed != want {
		t.Errorf("observed %d points, want %d", stats.Observed, want)
	}
	if stats.Window == nil || stats.Window.LivePoints < 500 {
		t.Errorf("window stats after concurrent ingest: %+v", stats.Window)
	}
}

// TestTypedIngestErrors pins the machine-readable error codes of the ingest
// validation path.
func TestTypedIngestErrors(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 16, dist: "euclidean"})
	doJSON(t, "POST", ts.URL+"/streams/t/points", batch(kcenter.Dataset{{1, 2}}), nil)

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/streams/t/points", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Code
	}
	cases := []struct {
		name, body string
		code       string
	}{
		{"malformed-json", `{`, engine.CodeInvalidJSON},
		{"nan-via-out-of-range", `{"points": [[1, 1e999]]}`, engine.CodeInvalidJSON},
		{"empty-batch", `{"points": []}`, engine.CodeEmptyBatch},
		{"ragged-batch", `{"points": [[1,2],[3]]}`, engine.CodeDimensionMismatch},
		{"zero-dim", `{"points": [[]]}`, engine.CodeInvalidPoint},
		{"wrong-dim-for-stream", `{"points": [[1,2,3]]}`, engine.CodeDimensionMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code := post(tc.body)
			if status != http.StatusBadRequest || code != tc.code {
				t.Errorf("status %d code %q, want 400 %q", status, code, tc.code)
			}
		})
	}
	// The stream was never perturbed.
	var st engine.StreamStats
	doJSON(t, "GET", ts.URL+"/streams/t/stats", nil, &st)
	if st.Observed != 1 {
		t.Errorf("observed %d after rejected batches, want 1", st.Observed)
	}
}

// TestTimestampsWithoutWindowDoNotCreateStream guards against a rejected
// first ingest creating the stream as a side effect: forgetting ?window= on
// a timestamped batch must leave the name unclaimed, so the corrected retry
// can still create a window stream.
func TestTimestampsWithoutWindowDoNotCreateStream(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 16, dist: "euclidean"})
	body, _ := json.Marshal(ingestRequest{Points: kcenter.Dataset{{1, 2}}, Timestamps: []int64{1}})
	resp, err := http.Post(ts.URL+"/streams/fresh/points", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || er.Code != engine.CodeNotWindowed {
		t.Fatalf("first timestamped ingest without window: status %d code %q", resp.StatusCode, er.Code)
	}
	// The name was not claimed by the rejection...
	if resp := doJSON(t, "GET", ts.URL+"/streams/fresh/stats", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected ingest created the stream: stats status %d", resp.StatusCode)
	}
	// ...so the corrected retry creates a real window stream.
	var stats engine.StreamStats
	resp2, err := http.Post(ts.URL+"/streams/fresh/points?window=100", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp2.Body).Decode(&stats)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || stats.Window == nil || stats.Window.Size != 100 {
		t.Fatalf("corrected retry: status %d stats %+v", resp2.StatusCode, stats)
	}
}

// TestWindowParamsOnExistingPlainStreamRejected: passing ?window= at an
// already-created insertion-only stream must fail loudly instead of silently
// ingesting into a stream that never evicts.
func TestWindowParamsOnExistingPlainStreamRejected(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 16, dist: "euclidean"})
	doJSON(t, "POST", ts.URL+"/streams/p/points", batch(kcenter.Dataset{{1, 2}}), nil)
	var er errorResponse
	resp := doJSON(t, "POST", ts.URL+"/streams/p/points?window=100", batch(kcenter.Dataset{{3, 4}}), &er)
	if resp.StatusCode != http.StatusBadRequest || er.Code != engine.CodeInvalidParam {
		t.Fatalf("window param on plain stream: status %d code %q", resp.StatusCode, er.Code)
	}
	var st engine.StreamStats
	doJSON(t, "GET", ts.URL+"/streams/p/stats", nil, &st)
	if st.Observed != 1 {
		t.Errorf("rejected batch was ingested: observed %d, want 1", st.Observed)
	}
	// Repeating the original window params at a window stream keeps working.
	doJSON(t, "POST", ts.URL+"/streams/w/points?window=100", batch(kcenter.Dataset{{1, 2}}), nil)
	if resp := doJSON(t, "POST", ts.URL+"/streams/w/points?window=100", batch(kcenter.Dataset{{3, 4}}), nil); resp.StatusCode != http.StatusOK {
		t.Errorf("re-passing window params at a window stream: status %d", resp.StatusCode)
	}
}
