package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/server/engine"
)

// durableServer is an in-process daemon wired to a persist.Store, with the
// same boot sequence as run(): open, recover, adopt.
type durableServer struct {
	srv   *server
	store *persist.Store
	http  *httptest.Server
}

func newDurableServer(t *testing.T, dir string, cfg config, opts persist.Options) *durableServer {
	t.Helper()
	store, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cfg)
	srv.eng.Store = store
	recovered, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	srv.eng.AdoptRecovered(recovered)
	ds := &durableServer{srv: srv, store: store, http: httptest.NewServer(srv.routes())}
	t.Cleanup(ds.close)
	return ds
}

func (d *durableServer) close() {
	if d.http != nil {
		d.http.Close()
		d.http = nil
	}
	if d.store != nil {
		d.store.Close()
		d.store = nil
	}
}

// snapshotBytes fetches the stream's serialized state over HTTP.
func snapshotBytes(t *testing.T, baseURL, name string) []byte {
	t.Helper()
	resp, err := http.Post(baseURL+"/streams/"+name+"/snapshot", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot %s: status %d: %s", name, resp.StatusCode, data)
	}
	return data
}

// TestDurableRestartByteIdentical is the in-process half of the recovery
// contract: stop a durable daemon (flushown journals, no crash), boot a new
// one on the same directory, and every stream's re-snapshot must be
// byte-identical to an uninterrupted run over the same requests — for the
// insertion-only and the windowed stream alike, replay tail included (no
// compaction configured, so recovery replays every batch).
func TestDurableRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := config{k: 4, budget: 40}
	opts := persist.Options{Fsync: persist.FsyncAlways, CompactEvery: -1}

	d1 := newDurableServer(t, dir, cfg, opts)
	ref := newTestServer(t, cfg) // uninterrupted in-memory reference

	apply := func(baseURL string) {
		for i := 0; i < 6; i++ {
			var stats engine.StreamStats
			resp := doJSON(t, "POST", baseURL+"/streams/ins/points", batch(blobs(30, 3, int64(i))), &stats)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ins batch %d: status %d", i, resp.StatusCode)
			}
			req := batch(blobs(20, 2, int64(100+i)))
			req.Timestamps = make([]int64, 20)
			for j := range req.Timestamps {
				req.Timestamps[j] = int64(i*20 + j)
			}
			resp = doJSON(t, "POST", baseURL+"/streams/win/points?window=50&windowDur=70", req, &stats)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("win batch %d: status %d", i, resp.StatusCode)
			}
		}
		resp := doJSON(t, "POST", baseURL+"/streams/win/advance", advanceRequest{To: 150}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advance: status %d", resp.StatusCode)
		}
	}
	apply(d1.http.URL)
	apply(ref.URL)
	d1.close()

	d2 := newDurableServer(t, dir, cfg, opts)
	for _, name := range []string{"ins", "win"} {
		got := snapshotBytes(t, d2.http.URL, name)
		want := snapshotBytes(t, ref.URL, name)
		if !bytes.Equal(got, want) {
			t.Fatalf("stream %q: recovered snapshot (%d bytes) differs from uninterrupted run (%d bytes)", name, len(got), len(want))
		}
	}
	// Recovery is surfaced on the stats endpoint.
	var stats engine.StreamStats
	if resp := doJSON(t, "GET", d2.http.URL+"/streams/ins/stats", nil, &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if stats.Durability == nil || stats.Durability.Recovery == nil {
		t.Fatalf("stats carry no recovery info: %+v", stats.Durability)
	}
	rec := stats.Durability.Recovery
	if rec.RecordsReplayed != 6 || rec.PointsReplayed != 180 || rec.SnapshotLoaded {
		t.Fatalf("recovery stats = %+v, want 6 replayed batches of 180 points and no snapshot", rec)
	}
	// The recovered stream keeps serving and journaling.
	if resp := doJSON(t, "POST", d2.http.URL+"/streams/ins/points", batch(blobs(10, 3, 999)), &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery ingest status %d", resp.StatusCode)
	}
}

// TestCompactionThenRestart drives enough batches through a small
// -compact-every threshold that background compaction runs, then restarts:
// the recovered state must still re-snapshot byte-identically, now via
// snapshot + short tail instead of full replay.
func TestCompactionThenRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := config{k: 3, budget: 24}
	opts := persist.Options{Fsync: persist.FsyncAlways, CompactEvery: 3}

	d1 := newDurableServer(t, dir, cfg, opts)
	ref := newTestServer(t, cfg)
	for i := 0; i < 10; i++ {
		for _, url := range []string{d1.http.URL, ref.URL} {
			if resp := doJSON(t, "POST", url+"/streams/s/points", batch(blobs(25, 2, int64(i))), nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("batch %d: status %d", i, resp.StatusCode)
			}
		}
	}
	// Background compaction is asynchronous; wait for at least one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats engine.StreamStats
		doJSON(t, "GET", d1.http.URL+"/streams/s/stats", nil, &stats)
		if stats.Durability != nil && stats.Durability.Compactions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compaction after 10 batches with CompactEvery=3: %+v", stats.Durability)
		}
		time.Sleep(10 * time.Millisecond)
	}
	d1.close()

	d2 := newDurableServer(t, dir, cfg, opts)
	got := snapshotBytes(t, d2.http.URL, "s")
	want := snapshotBytes(t, ref.URL, "s")
	if !bytes.Equal(got, want) {
		t.Fatalf("post-compaction recovery differs: %d vs %d bytes", len(got), len(want))
	}
	var stats engine.StreamStats
	doJSON(t, "GET", d2.http.URL+"/streams/s/stats", nil, &stats)
	rec := stats.Durability.Recovery
	if rec == nil || !rec.SnapshotLoaded {
		t.Fatalf("recovery did not use the snapshot: %+v", rec)
	}
	if rec.RecordsReplayed >= 10 {
		t.Fatalf("replayed %d records despite compaction", rec.RecordsReplayed)
	}
}

// TestDeleteRemovesDurableState: DELETE tombstones the directory, so a
// restart must not resurrect the stream; and the name is immediately
// reusable with different parameters.
func TestDeleteRemovesDurableState(t *testing.T) {
	dir := t.TempDir()
	cfg := config{k: 3, budget: 24}
	opts := persist.Options{Fsync: persist.FsyncAlways, CompactEvery: -1}

	d1 := newDurableServer(t, dir, cfg, opts)
	if resp := doJSON(t, "POST", d1.http.URL+"/streams/doomed/points", batch(blobs(20, 2, 1)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "DELETE", d1.http.URL+"/streams/doomed", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	// Recreate under the same name with different k: must not trip over the
	// deleted directory.
	if resp := doJSON(t, "POST", d1.http.URL+"/streams/doomed/points?k=5", batch(blobs(20, 2, 2)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recreate status %d", resp.StatusCode)
	}
	d1.close()

	d2 := newDurableServer(t, dir, cfg, opts)
	var stats engine.StreamStats
	if resp := doJSON(t, "GET", d2.http.URL+"/streams/doomed/stats", nil, &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("recreated stream lost: status %d", resp.StatusCode)
	}
	if stats.K != 5 || stats.Observed != 20 {
		t.Fatalf("recovered the wrong incarnation: %+v", stats)
	}
}

// TestRestoreIsDurable: a restored sketch must survive a restart (restore
// writes the snapshot and a fresh journal).
func TestRestoreIsDurable(t *testing.T) {
	// Build a donor sketch.
	donor, err := kcenter.NewStreamingKCenter(3, 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.ObserveAll(blobs(100, 2, 7)); err != nil {
		t.Fatal(err)
	}
	sk, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := config{k: 3, budget: 24}
	opts := persist.Options{Fsync: persist.FsyncAlways, CompactEvery: -1}
	d1 := newDurableServer(t, dir, cfg, opts)
	resp, err := http.Post(d1.http.URL+"/streams/revived/restore", "application/octet-stream", bytes.NewReader(sk))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status %d", resp.StatusCode)
	}
	// Keep observing after the restore so the journal tail is non-trivial.
	if resp := doJSON(t, "POST", d1.http.URL+"/streams/revived/points", batch(blobs(30, 2, 8)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restore ingest status %d", resp.StatusCode)
	}
	want := snapshotBytes(t, d1.http.URL, "revived")
	d1.close()

	d2 := newDurableServer(t, dir, cfg, opts)
	got := snapshotBytes(t, d2.http.URL, "revived")
	if !bytes.Equal(got, want) {
		t.Fatalf("restored stream did not survive the restart byte-identically")
	}
}

// TestAdvanceEndpoint covers the new clock endpoint: eviction through
// advance, the not_windowed rejection, and timestamp-order validation.
func TestAdvanceEndpoint(t *testing.T) {
	ts := newTestServer(t, config{k: 2, budget: 16})

	req := batch(blobs(10, 2, 1))
	req.Timestamps = make([]int64, 10)
	for j := range req.Timestamps {
		req.Timestamps[j] = int64(j)
	}
	if resp := doJSON(t, "POST", ts.URL+"/streams/w/points?windowDur=20", req, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var stats engine.StreamStats
	if resp := doJSON(t, "POST", ts.URL+"/streams/w/advance", advanceRequest{To: 1000}, &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("advance status %d", resp.StatusCode)
	}
	if stats.Window == nil || stats.Window.LivePoints != 0 {
		t.Fatalf("advance past the window did not evict: %+v", stats.Window)
	}
	// Clock cannot move backwards.
	var er errorResponse
	if resp := doJSON(t, "POST", ts.URL+"/streams/w/advance", advanceRequest{To: 5}, &er); resp.StatusCode != http.StatusBadRequest || er.Code != engine.CodeInvalidTimestamps {
		t.Fatalf("backwards advance: status %d code %q", resp.StatusCode, er.Code)
	}
	// Non-window streams have no clock.
	if resp := doJSON(t, "POST", ts.URL+"/streams/plain/points", batch(blobs(5, 2, 2)), nil); resp.StatusCode != http.StatusOK {
		t.Fatal("plain ingest failed")
	}
	if resp := doJSON(t, "POST", ts.URL+"/streams/plain/advance", advanceRequest{To: 5}, &er); resp.StatusCode != http.StatusBadRequest || er.Code != engine.CodeNotWindowed {
		t.Fatalf("advance on plain stream: status %d code %q", resp.StatusCode, er.Code)
	}
	// Unknown streams are not implicitly created by advance.
	if resp := doJSON(t, "POST", ts.URL+"/streams/nope/advance", advanceRequest{To: 5}, &er); resp.StatusCode != http.StatusNotFound || er.Code != engine.CodeUnknownStream {
		t.Fatalf("advance on unknown stream: status %d code %q", resp.StatusCode, er.Code)
	}
}

// TestRecoveryMetadataMismatchSetsAside: a snapshot that contradicts the
// journaled metadata must not be served; the stream is set aside and the
// name stays usable.
func TestRecoveryMetadataMismatchSetsAside(t *testing.T) {
	dir := t.TempDir()
	cfg := config{k: 3, budget: 24}
	opts := persist.Options{Fsync: persist.FsyncAlways, CompactEvery: -1}

	// Stream with k=3 journaled…
	store, err := persist.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := store.Create("tampered", persist.Meta{K: 3, Budget: 24, Space: "euclidean"})
	if err != nil {
		t.Fatal(err)
	}
	// …but a snapshot captured from a k=7 stream planted in its place.
	donor, err := kcenter.NewStreamingKCenter(7, 56)
	if err != nil {
		t.Fatal(err)
	}
	if err := donor.ObserveAll(blobs(50, 2, 3)); err != nil {
		t.Fatal(err)
	}
	sk, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Compact(sk); err != nil {
		t.Fatal(err)
	}
	store.Close()

	d := newDurableServer(t, dir, cfg, opts)
	var er errorResponse
	if resp := doJSON(t, "GET", d.http.URL+"/streams/tampered/stats", nil, &er); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("mismatched stream served: status %d", resp.StatusCode)
	}
	// Name stays usable.
	if resp := doJSON(t, "POST", d.http.URL+"/streams/tampered/points", batch(blobs(5, 2, 4)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("name unusable after set-aside: status %d", resp.StatusCode)
	}
}

// TestTornWALTailRecovered tears the journal mid-record (as an interrupted
// write under -fsync=never would) and verifies recovery truncates the tail
// and serves the surviving prefix.
func TestTornWALTailRecovered(t *testing.T) {
	dir := t.TempDir()
	cfg := config{k: 3, budget: 24}
	opts := persist.Options{Fsync: persist.FsyncAlways, CompactEvery: -1}

	d1 := newDurableServer(t, dir, cfg, opts)
	for i := 0; i < 4; i++ {
		if resp := doJSON(t, "POST", d1.http.URL+"/streams/s/points", batch(blobs(12, 2, int64(i))), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
	}
	d1.close()

	// Tear the WAL: drop the last 7 bytes of the newest record.
	matches, err := filepath.Glob(filepath.Join(dir, "*", "wal"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("WAL glob: %v (%d matches)", err, len(matches))
	}
	img, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(matches[0], img[:len(img)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := newDurableServer(t, dir, cfg, opts)
	var stats engine.StreamStats
	if resp := doJSON(t, "GET", d2.http.URL+"/streams/s/stats", nil, &stats); resp.StatusCode != http.StatusOK {
		t.Fatalf("stream lost after torn tail: status %d", resp.StatusCode)
	}
	if stats.Observed != 36 {
		t.Fatalf("observed %d, want 36 (3 surviving batches)", stats.Observed)
	}
	rec := stats.Durability.Recovery
	if rec == nil || !rec.TornTail || rec.RecordsReplayed != 3 {
		t.Fatalf("recovery stats = %+v, want a reported torn tail and 3 replayed records", rec)
	}
}
