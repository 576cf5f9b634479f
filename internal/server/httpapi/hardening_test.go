package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"coresetclustering/internal/persist"
)

// httptestServer serves a pre-built server (custom config or store) and
// returns its base URL.
func httptestServer(t *testing.T, srv *server) string {
	t.Helper()
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts.URL
}

// postRaw posts a raw body and returns status plus decoded error (if any).
func postRaw(t *testing.T, url, contentType string, body []byte) (int, errorResponse) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	return resp.StatusCode, er
}

// TestDeleteIngestSnapshotRace hammers one stream name with concurrent
// ingest, snapshot, stats, delete and re-create, with durability enabled —
// the use-after-delete audit of the per-stream mutex table. Run under -race.
// Every response must be one of the expected statuses (never a 500), deleted
// streams must never acknowledge writes (the gone flag), and at the end the
// stream table must hold at most the one surviving entry (no mutex leak for
// deleted names).
func TestDeleteIngestSnapshotRace(t *testing.T) {
	srv := newServer(config{k: 2, budget: 16})
	store, err := persist.Open(t.TempDir(), persist.Options{Fsync: persist.FsyncNever, CompactEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv.eng.Store = store
	ts := httptestServer(t, srv)

	const (
		workers = 4
		rounds  = 40
	)
	var wg sync.WaitGroup
	fail := make(chan string, workers*3*rounds)
	expect := func(kind string, status int, allowed ...int) {
		for _, a := range allowed {
			if status == a {
				return
			}
		}
		fail <- fmt.Sprintf("%s: unexpected status %d", kind, status)
	}
	for w := 0; w < workers; w++ {
		wg.Add(3)
		go func(seed int64) { // ingester
			defer wg.Done()
			body, _ := json.Marshal(batch(blobs(8, 2, seed)))
			for i := 0; i < rounds; i++ {
				status, _ := postRaw(t, ts+"/streams/contested/points", "application/json", body)
				// 409 when racing a delete; 200 otherwise.
				expect("ingest", status, http.StatusOK, http.StatusConflict)
			}
		}(int64(w))
		go func() { // snapshotter
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(ts+"/streams/contested/snapshot", "application/octet-stream", nil)
				if err != nil {
					fail <- err.Error()
					continue
				}
				resp.Body.Close()
				expect("snapshot", resp.StatusCode, http.StatusOK, http.StatusNotFound, http.StatusConflict)
			}
		}()
		go func() { // deleter
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req, _ := http.NewRequest("DELETE", ts+"/streams/contested", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					fail <- err.Error()
					continue
				}
				resp.Body.Close()
				expect("delete", resp.StatusCode, http.StatusOK, http.StatusNotFound)
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	n := len(srv.eng.StreamNames())
	if n > 1 {
		t.Fatalf("stream table holds %d entries for one contested name (mutex leak)", n)
	}
	// The survivor (if any) must still be consistent and writable.
	status, _ := postRaw(t, ts+"/streams/contested/points", "application/json", []byte(`{"points": [[9,9]]}`))
	if status != http.StatusOK {
		t.Fatalf("post-hammer ingest: status %d", status)
	}
}
