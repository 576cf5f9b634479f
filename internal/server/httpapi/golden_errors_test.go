package httpapi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	kcenter "coresetclustering"
)

// TestErrorCodeStatusGolden pins the daemon's error contract: the exact set
// of machine-readable codes and the HTTP status each maps to. A refactor that
// adds, drops, or moves a code must consciously edit this table — the diff is
// the review trail for a wire-contract change.
func TestErrorCodeStatusGolden(t *testing.T) {
	golden := map[string]int{
		"invalid_json":           http.StatusBadRequest,
		"empty_batch":            http.StatusBadRequest,
		"invalid_point":          http.StatusBadRequest,
		"dimension_mismatch":     http.StatusBadRequest,
		"invalid_param":          http.StatusBadRequest,
		"invalid_timestamps":     http.StatusBadRequest,
		"not_windowed":           http.StatusBadRequest,
		"bad_sketch":             http.StatusBadRequest,
		"invalid_frame":          http.StatusBadRequest,
		"unknown_stream":         http.StatusNotFound,
		"stream_gone":            http.StatusConflict,
		"empty_stream":           http.StatusConflict,
		"body_too_large":         http.StatusRequestEntityTooLarge,
		"unsupported_media_type": http.StatusUnsupportedMediaType,
		"stream_failed":          http.StatusInternalServerError,
		"internal":               http.StatusInternalServerError,
		"shard_incompatible":     http.StatusBadGateway,
		"shard_unavailable":      http.StatusBadGateway,
	}
	for code, want := range golden {
		if got, ok := codeStatus[code]; !ok {
			t.Errorf("code %q missing from codeStatus", code)
		} else if got != want {
			t.Errorf("code %q maps to %d, want %d", code, got, want)
		}
	}
	for code, got := range codeStatus {
		if _, ok := golden[code]; !ok {
			t.Errorf("codeStatus has unpinned code %q (status %d): add it to the golden table", code, got)
		}
	}
	// Unknown codes must fail closed as a 500, never leak a 200.
	if got := statusForCode("no_such_code"); got != http.StatusInternalServerError {
		t.Errorf("statusForCode(unknown) = %d, want 500", got)
	}
}

// TestErrorCodesLiveRoundTrip drives every error code reachable from a clean
// daemon through real handlers and asserts each response carries the code's
// golden status — the end-to-end check that the transport layer actually
// routes typed engine errors through statusForCode.
//
// Not reachable here by construction, and covered elsewhere: stream_failed
// and stream_gone need an injected mid-batch apply fault (queryview_test),
// shard_unavailable is minted by the router role (router cluster tests), and
// internal is the fallback for errors that cannot otherwise occur.
func TestErrorCodesLiveRoundTrip(t *testing.T) {
	ts := newTestServer(t, config{k: 3, budget: 24, Common: Common{MaxBody: 64 << 10}})

	raw := func(method, path, contentType string, body []byte) (int, errorResponse) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er
	}

	// Seed a window stream whose sketch is valid but unmergeable, for the
	// shard_incompatible case.
	doJSON(t, "POST", ts.URL+"/streams/gw/points?window=50", batch(blobs(100, 2, 7)), nil)
	resp, err := http.Post(ts.URL+"/streams/gw/snapshot", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	windowSketch, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	mergeBody, _ := json.Marshal(mergeRequest{Sketches: []string{
		base64.StdEncoding.EncodeToString(windowSketch),
		base64.StdEncoding.EncodeToString(windowSketch),
	}})

	// Seed a plain stream so the not_windowed and empty_stream triggers have
	// something to hit.
	doJSON(t, "POST", ts.URL+"/streams/gp/points", batch(blobs(10, 2, 8)), nil)

	cases := []struct {
		code        string
		method      string
		path        string
		contentType string
		body        []byte
	}{
		{"invalid_json", "POST", "/streams/g/points", "application/json", []byte(`{bad`)},
		{"empty_batch", "POST", "/streams/g/points", "application/json", []byte(`{"points": []}`)},
		{"invalid_point", "POST", "/streams/g/points", "application/json", []byte(`{"points": [[]]}`)},
		{"dimension_mismatch", "POST", "/streams/g/points", "application/json", []byte(`{"points": [[1,2],[3]]}`)},
		{"invalid_param", "POST", "/streams/gq/points?k=abc", "application/json", []byte(`{"points": [[1,2]]}`)},
		{"invalid_timestamps", "POST", "/streams/gt/points?windowDur=100", "application/json",
			[]byte(`{"points": [[1,2],[3,4]], "timestamps": [5]}`)},
		{"not_windowed", "POST", "/streams/gp/points", "application/json",
			[]byte(`{"points": [[1,2]], "timestamps": [1]}`)},
		{"bad_sketch", "POST", "/streams/g/restore", "application/octet-stream", []byte("not a sketch")},
		{"invalid_frame", "POST", "/streams/g/points", BinaryContentType, []byte("XXXX garbage frame")},
		{"unknown_stream", "GET", "/streams/never-created/centers", "", nil},
		{"body_too_large", "POST", "/streams/g/restore", "application/octet-stream",
			bytes.Repeat([]byte("x"), 128<<10)},
		{"unsupported_media_type", "POST", "/streams/g/points", "text/csv", []byte("1,2\n")},
		{"shard_incompatible", "POST", "/merge", "application/json", mergeBody},
	}
	covered := make(map[string]bool)
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			status, er := raw(tc.method, tc.path, tc.contentType, tc.body)
			if er.Code != tc.code {
				t.Fatalf("%s %s: code %q, want %q", tc.method, tc.path, er.Code, tc.code)
			}
			if want := statusForCode(tc.code); status != want {
				t.Fatalf("%s %s: status %d, want %d for code %q", tc.method, tc.path, status, want, tc.code)
			}
			if er.Error == "" {
				t.Errorf("%s %s: empty error message for code %q", tc.method, tc.path, tc.code)
			}
		})
		covered[tc.code] = true
	}

	// empty_stream: evict a duration window past all its points, then query.
	doJSON(t, "POST", ts.URL+"/streams/ge/points?windowDur=10", &ingestRequest{
		Points: kcenter.Dataset{{1, 2}, {3, 4}}, Timestamps: []int64{1, 2},
	}, nil)
	doJSON(t, "POST", ts.URL+"/streams/ge/advance", advanceRequest{To: 1_000_000}, nil)
	t.Run("empty_stream", func(t *testing.T) {
		status, er := raw("GET", "/streams/ge/centers", "", nil)
		if er.Code != "empty_stream" || status != statusForCode("empty_stream") {
			t.Fatalf("evicted window centers: status %d code %q, want %d empty_stream",
				status, er.Code, statusForCode("empty_stream"))
		}
	})
	covered["empty_stream"] = true

	// Every code the golden table pins is either driven above or excused in
	// the doc comment — keep this list in sync so new codes get a trigger.
	excused := map[string]bool{
		"stream_failed": true, "stream_gone": true,
		"shard_unavailable": true, "internal": true,
	}
	for code := range codeStatus {
		if !covered[code] && !excused[code] {
			t.Errorf("code %q has no live trigger and no excuse — add one here", code)
		}
	}
}
