package httpapi

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"coresetclustering/internal/server/engine"
)

// TestSnapshotETagGolden pins the snapshot route's validator contract on the
// wire, for GET and its POST alias alike: a 200 carries the strong ETag of
// exactly the bytes it sends, a matching If-None-Match (alone, weak-prefixed,
// in a list, or "*") is a bodiless 304 that still names the tag, and anything
// else — no header, another tag, a malformed header — is the full 200. A new
// version is a new tag, errors carry none, and /centers never computes one.
func TestSnapshotETagGolden(t *testing.T) {
	ts := newTestServer(t, config{k: 3, budget: 24})
	doJSON(t, "POST", ts.URL+"/streams/s/points", batch(blobs(200, 2, 3)), nil)

	fetch := func(method, path, ifNoneMatch string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	for _, method := range []string{http.MethodGet, http.MethodPost} {
		first, sketch := fetch(method, "/streams/s/snapshot", "")
		etag := first.Header.Get("ETag")
		if first.StatusCode != http.StatusOK || len(sketch) == 0 {
			t.Fatalf("%s snapshot: status %d, %d bytes", method, first.StatusCode, len(sketch))
		}
		if want := `"` + engine.SketchTag(sketch) + `"`; etag != want {
			t.Fatalf("%s snapshot: ETag %s, want %s (strong, derived from the body)", method, etag, want)
		}
		cases := []struct {
			name, ifNoneMatch string
			status            int
		}{
			{"same tag", etag, http.StatusNotModified},
			{"weak form of the tag", "W/" + etag, http.StatusNotModified},
			{"tag in a list", `"0123", ` + etag, http.StatusNotModified},
			{"wildcard", "*", http.StatusNotModified},
			{"another tag", `"00000000000000000000000000000000"`, http.StatusOK},
			{"unquoted tag", etag[1 : len(etag)-1], http.StatusOK},
			{"malformed list", `,,"`, http.StatusOK},
		}
		for _, tc := range cases {
			resp, body := fetch(method, "/streams/s/snapshot", tc.ifNoneMatch)
			if resp.StatusCode != tc.status {
				t.Errorf("%s, %s: status %d, want %d", method, tc.name, resp.StatusCode, tc.status)
				continue
			}
			if got := resp.Header.Get("ETag"); got != etag {
				t.Errorf("%s, %s: ETag %s, want %s", method, tc.name, got, etag)
			}
			switch tc.status {
			case http.StatusNotModified:
				if len(body) != 0 {
					t.Errorf("%s, %s: 304 carried %d body bytes", method, tc.name, len(body))
				}
			case http.StatusOK:
				if !bytes.Equal(body, sketch) {
					t.Errorf("%s, %s: 200 body differs from the first snapshot of the same version", method, tc.name)
				}
			}
		}
	}

	old, _ := fetch(http.MethodGet, "/streams/s/snapshot", "")
	doJSON(t, "POST", ts.URL+"/streams/s/points", batch(blobs(50, 2, 4)), nil)
	next, body := fetch(http.MethodGet, "/streams/s/snapshot", old.Header.Get("ETag"))
	if next.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("stale tag after an ingest: status %d, %d bytes, want the new snapshot", next.StatusCode, len(body))
	}
	if next.Header.Get("ETag") == old.Header.Get("ETag") {
		t.Fatal("ingest did not move the ETag")
	}

	if resp, _ := fetch(http.MethodGet, "/streams/nope/snapshot", "*"); resp.StatusCode != http.StatusNotFound || resp.Header.Get("ETag") != "" {
		t.Errorf("unknown stream: status %d ETag %q, want 404 and none", resp.StatusCode, resp.Header.Get("ETag"))
	}
	if resp, _ := fetch(http.MethodGet, "/streams/s/centers", next.Header.Get("ETag")); resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != "" {
		t.Errorf("centers: status %d ETag %q; the centers path must not serialize or hash a snapshot",
			resp.StatusCode, resp.Header.Get("ETag"))
	}
}
