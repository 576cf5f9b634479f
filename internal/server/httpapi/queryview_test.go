package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/server/engine"
)

// tryJSON is doJSON for helper goroutines: failures go through t.Error (never
// FailNow, which must not run off the test goroutine) and ok reports whether
// the request and decode both succeeded.
func tryJSON(t *testing.T, method, url string, body any, out any) (*http.Response, bool) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return nil, false
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Error(err)
		return nil, false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return nil, false
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Errorf("%s %s: decoding response: %v", method, url, err)
			return resp, false
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, true
}

// hammerBatch returns the deterministic contents of batch number i (0-based):
// the version counter maps version V to exactly batches 0..V-1, so any reader
// observation can be replayed locally.
func hammerBatch(i, perBatch, dim int) kcenter.Dataset {
	return blobs(perBatch, dim, int64(1000+i))
}

// TestQueryViewHammer hammers one stream with a writer and many wait-free
// readers (run under -race in CI) and checks the snapshot-isolation contract:
// (a) no reader ever observes torn state — every answer sits exactly on an
// acknowledged batch boundary, with observed == version * perBatch;
// (b) a reader at version V sees the extraction of exactly the first V
// batches — verified by replaying those batches into a local clusterer and
// comparing snapshots bit-for-bit;
// (c) a repeated query at an unchanged version is a cache hit, byte-identical
// to the fresh extraction.
func TestQueryViewHammer(t *testing.T) {
	const (
		k        = 4
		budget   = 40
		batches  = 40
		perBatch = 25
		dim      = 3
		readers  = 6
	)
	ts := newTestServer(t, config{k: k, budget: budget})
	url := ts.URL + "/streams/hammer"

	var done atomic.Bool
	var wg sync.WaitGroup

	// One writer: version V <=> first V batches, no coordination needed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < batches; i++ {
			var stats engine.StreamStats
			resp, ok := tryJSON(t, "POST", url+"/points", batch(hammerBatch(i, perBatch, dim)), &stats)
			if !ok {
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("ingest %d: status %d", i, resp.StatusCode)
				return
			}
			if stats.Version != int64(i+1) || stats.Observed != int64((i+1)*perBatch) {
				t.Errorf("ingest %d: version=%d observed=%d", i, stats.Version, stats.Observed)
				return
			}
		}
	}()

	// Readers: snapshots of whatever version is current. Keep the first
	// snapshot seen per version for the replay check below.
	var mu sync.Mutex
	byVersion := make(map[int64][]byte)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !done.Load() {
				switch r % 3 {
				case 0:
					var cr centersResponse
					resp, ok := tryJSON(t, "GET", url+"/centers", nil, &cr)
					if !ok {
						return
					}
					if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusConflict {
						continue // beat the first batch, or the window is empty
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("centers: status %d", resp.StatusCode)
						return
					}
					if cr.Observed != cr.Version*perBatch {
						t.Errorf("torn centers read: version=%d observed=%d", cr.Version, cr.Observed)
						return
					}
					if len(cr.Centers) != k {
						t.Errorf("centers at version %d: got %d, want %d", cr.Version, len(cr.Centers), k)
						return
					}
				case 1:
					var stats engine.StreamStats
					resp, ok := tryJSON(t, "GET", url+"/stats", nil, &stats)
					if !ok {
						return
					}
					if resp.StatusCode == http.StatusNotFound {
						continue
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("stats: status %d", resp.StatusCode)
						return
					}
					if stats.Observed != stats.Version*perBatch {
						t.Errorf("torn stats read: version=%d observed=%d", stats.Version, stats.Observed)
						return
					}
				case 2:
					resp, err := http.Post(url+"/snapshot", "application/octet-stream", nil)
					if err != nil {
						t.Error(err)
						return
					}
					snap, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Error(err)
						return
					}
					if resp.StatusCode == http.StatusNotFound {
						continue
					}
					if resp.StatusCode != http.StatusOK {
						t.Errorf("snapshot: status %d: %s", resp.StatusCode, snap)
						return
					}
					info, err := kcenter.InspectSketch(snap)
					if err != nil {
						t.Errorf("snapshot does not decode: %v", err)
						return
					}
					if info.Observed%perBatch != 0 {
						t.Errorf("torn snapshot: observed=%d is not a batch boundary", info.Observed)
						return
					}
					mu.Lock()
					v := info.Observed / perBatch
					if _, ok := byVersion[v]; !ok {
						byVersion[v] = snap
					}
					mu.Unlock()
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// (b) every sampled version must be bit-identical to a local replay of
	// exactly its first V batches.
	for v, snap := range byVersion {
		ref, err := kcenter.NewStreamingKCenter(k, budget)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < v; i++ {
			if err := ref.ObserveAll(hammerBatch(int(i), perBatch, dim)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, want) {
			t.Fatalf("snapshot at version %d is not the state of the first %d batches", v, v)
		}
	}

	// (c) with the writer stopped the version is frozen: the next two centers
	// queries answer byte-identically (the second from the cache), and both
	// match a fresh local extraction from the final state.
	read := func() ([]byte, engine.StreamStats) {
		resp, err := http.Get(url + "/centers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("centers: status %d: %s", resp.StatusCode, body)
		}
		var cr centersResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		return body, cr.StreamStats
	}
	first, s1 := read()
	second, s2 := read()
	if s2.Cache.Hits <= s1.Cache.Hits {
		t.Fatalf("second read at a frozen version was not a cache hit: %+v -> %+v", s1.Cache, s2.Cache)
	}
	// The cache counters ride along in the body, so strip them before the
	// byte comparison; the centers themselves must be identical.
	var c1, c2 centersResponse
	if err := json.Unmarshal(first, &c1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &c2); err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(c1.Centers)
	b2, _ := json.Marshal(c2.Centers)
	if !bytes.Equal(b1, b2) {
		t.Fatal("cache hit returned different centers than the fresh extraction")
	}
	ref, err := kcenter.NewStreamingKCenter(k, budget)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		if err := ref.ObserveAll(hammerBatch(i, perBatch, dim)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Centers()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(b1, wantJSON) {
		t.Fatalf("daemon centers diverge from the local replay:\n got %s\nwant %s", b1, wantJSON)
	}
}

// TestCentersCacheCounters pins the cache lifecycle: repeated queries at one
// version hit, a mutation invalidates (by publishing a new view), and the
// hit/miss counters in stats tell the story.
func TestCentersCacheCounters(t *testing.T) {
	ts := newTestServer(t, config{k: 3, budget: 30})
	url := ts.URL + "/streams/cached"
	doJSON(t, "POST", url+"/points", batch(blobs(100, 2, 5)), nil)

	var cr centersResponse
	for i := 0; i < 3; i++ {
		if resp := doJSON(t, "GET", url+"/centers", nil, &cr); resp.StatusCode != http.StatusOK {
			t.Fatalf("centers %d: status %d", i, resp.StatusCode)
		}
	}
	if cr.Cache.Misses != 1 || cr.Cache.Hits != 2 {
		t.Fatalf("cache after 3 reads at one version: %+v, want 1 miss / 2 hits", cr.Cache)
	}
	// A write publishes a new view; its cache starts cold.
	doJSON(t, "POST", url+"/points", batch(blobs(50, 2, 6)), nil)
	if resp := doJSON(t, "GET", url+"/centers", nil, &cr); resp.StatusCode != http.StatusOK {
		t.Fatalf("centers after write: status %d", resp.StatusCode)
	}
	if cr.Cache.Misses != 2 || cr.Cache.Hits != 2 {
		t.Fatalf("cache after invalidating write: %+v, want 2 misses / 2 hits", cr.Cache)
	}
	if cr.Version != 2 {
		t.Fatalf("version = %d, want 2", cr.Version)
	}
}

// TestMidBatchApplyFailureSetsStreamAside forces the otherwise unreachable
// divergence: the WAL acknowledged a batch the in-memory state could not
// fully apply. The stream must fail loudly (500 stream_failed), disappear
// from the table, leave a *.failed directory for forensics, and free the
// name for a fresh stream.
func TestMidBatchApplyFailureSetsStreamAside(t *testing.T) {
	dir := t.TempDir()
	ds := newDurableServer(t, dir, config{k: 3, budget: 30}, persist.Options{Fsync: persist.FsyncAlways})
	url := ds.http.URL + "/streams/doomed"

	doJSON(t, "POST", url+"/points", batch(blobs(50, 2, 1)), nil)

	engine.ApplyPointHook = func(i int) error {
		if i == 3 {
			return fmt.Errorf("injected apply failure at point %d", i)
		}
		return nil
	}
	defer func() { engine.ApplyPointHook = func(int) error { return nil } }()

	var errResp errorResponse
	resp := doJSON(t, "POST", url+"/points", batch(blobs(10, 2, 2)), &errResp)
	if resp.StatusCode != http.StatusInternalServerError || errResp.Code != engine.CodeStreamFailed {
		t.Fatalf("diverged ingest: status %d code %q, want 500 %s", resp.StatusCode, errResp.Code, engine.CodeStreamFailed)
	}

	// Gone from the table...
	if resp := doJSON(t, "GET", url+"/stats", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after failure: status %d, want 404", resp.StatusCode)
	}
	// ...directory set aside, not destroyed...
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var failed int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".failed") {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("found %d .failed directories, want 1 (entries: %v)", failed, entries)
	}
	// ...and the name is free again.
	engine.ApplyPointHook = func(int) error { return nil }
	var stats engine.StreamStats
	if resp := doJSON(t, "POST", url+"/points", batch(blobs(20, 2, 3)), &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-create after set-aside: status %d", resp.StatusCode)
	}
	if stats.Observed != 20 || stats.Version != 1 {
		t.Fatalf("re-created stream stats: %+v", stats)
	}
	// base64url("doomed"): the fresh stream got a brand-new directory (the
	// set-aside renamed the old one away before freeing the name).
	if _, err := os.Stat(filepath.Join(dir, "ZG9vbWVk")); err != nil {
		t.Fatalf("re-created stream directory missing: %v", err)
	}
}

// TestIngestProceedsDuringCompaction pins the tentpole's satellite bugfix:
// compaction snapshots a published view and does its disk I/O with no stream
// lock held, so ingest and reads flow on while a compaction is stuck.
func TestIngestProceedsDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	ds := newDurableServer(t, dir, config{k: 3, budget: 30},
		persist.Options{Fsync: persist.FsyncAlways, CompactEvery: 3})
	url := ds.http.URL + "/streams/busy"

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	engine.CompactStartHook = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	defer func() { engine.CompactStartHook = func() {} }()

	// Cross the compaction threshold to trigger the (now blocked) background
	// compaction.
	for i := 0; i < 4; i++ {
		if resp := doJSON(t, "POST", url+"/points", batch(blobs(20, 2, int64(i))), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, resp.StatusCode)
		}
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("compaction never started")
	}

	// With the compaction wedged mid-flight, writes and reads must complete
	// promptly — the old code held the stream mutex across the whole thing.
	doneIngest := make(chan engine.StreamStats, 1)
	go func() {
		var stats engine.StreamStats
		doJSON(t, "POST", url+"/points", batch(blobs(20, 2, 99)), &stats)
		doneIngest <- stats
	}()
	select {
	case stats := <-doneIngest:
		if stats.Observed != 100 {
			t.Fatalf("ingest during compaction: observed=%d, want 100", stats.Observed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ingest blocked behind an in-flight compaction")
	}
	var cr centersResponse
	if resp := doJSON(t, "GET", url+"/centers", nil, &cr); resp.StatusCode != http.StatusOK {
		t.Fatalf("centers during compaction: status %d", resp.StatusCode)
	}

	close(release)
	// The released compaction lands: its snapshot covers the capture point
	// and the concurrent batch survives in the journal for replay.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats engine.StreamStats
		doJSON(t, "GET", url+"/stats", nil, &stats)
		if stats.Durability != nil && stats.Durability.Compactions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compaction never completed after release")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restart on the same directory: snapshot + preserved tail must rebuild
	// the exact same state (byte-identical re-snapshot).
	want := snapshotBytes(t, ds.http.URL, "busy")
	ds.close()
	ds2 := newDurableServer(t, dir, config{k: 3, budget: 30},
		persist.Options{Fsync: persist.FsyncAlways, CompactEvery: 3})
	got := snapshotBytes(t, ds2.http.URL, "busy")
	if !bytes.Equal(got, want) {
		t.Fatal("restart after off-lock compaction diverges from the live state")
	}
}

// TestSnapshotContentLength: the snapshot response announces its exact size
// up front, so clients can detect truncated transfers.
func TestSnapshotContentLength(t *testing.T) {
	ts := newTestServer(t, config{k: 3, budget: 30})
	url := ts.URL + "/streams/sized"
	doJSON(t, "POST", url+"/points", batch(blobs(80, 2, 4)), nil)

	resp, err := http.Post(url+"/snapshot", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
		t.Fatalf("Content-Length = %q, body is %d bytes", cl, len(body))
	}
}

// TestReadsDoNotTakeIngestMutex proves the wait-free claim structurally:
// with a stream's ingest mutex HELD, stats, centers and snapshot must all
// still answer. This test, not a latency benchmark, pins the claim: a read
// that queues behind the mutex fails here, while a reader timed beside a busy
// writer mostly hits the view memo and does not notice.
func TestReadsDoNotTakeIngestMutex(t *testing.T) {
	srv := newServer(config{k: 3, budget: 30})
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	url := ts.URL + "/streams/locked"
	if resp := doJSON(t, "POST", url+"/points", batch(blobs(60, 2, 8)), nil); resp.StatusCode != http.StatusOK {
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
		for _, path := range []string{"/stats", "/centers"} {
			resp, err := http.Get(url + path)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s with the ingest mutex held: status %d", path, resp.StatusCode)
			}
		}
		resp, err := http.Post(url+"/snapshot", "application/octet-stream", nil)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("snapshot with the ingest mutex held: status %d", resp.StatusCode)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a read handler blocked on the ingest mutex")
	}
}
