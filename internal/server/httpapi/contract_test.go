package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/server/httpapi"
	"coresetclustering/internal/server/router"
)

// The transport contract both kcenterd roles share: every test here runs
// once per role, through the role's real entry point, and asserts the same
// status and error code from each. Every request is rejected before the
// router would fan out, so the router needs no live shard.

// role is one kcenterd role: its entry point and the flags that make it
// servable with no backend.
type role struct {
	name string
	run  func(ctx context.Context, args []string, out io.Writer) error
	args []string
}

var roles = []role{
	{"shard", httpapi.Run, []string{"-k", "3", "-budget", "24"}},
	// Nothing listens on loopback port 1: the shard is unreachable.
	{"router", router.Run, []string{"-shards", "127.0.0.1:1"}},
}

// listeningRE picks the bound address out of a role's "listening" log line.
var listeningRE = regexp.MustCompile(`msg="?(?:router )?listening"? addr=(\S+)`)

// addrSink is the role's log output: it hands over the address the role
// bound, so roles listen on kernel-chosen ports without a reservation race.
type addrSink chan string

func (a addrSink) Write(p []byte) (int, error) {
	if m := listeningRE.FindSubmatch(p); m != nil {
		select {
		case a <- string(m[1]):
		default:
		}
	}
	return len(p), nil
}

// start boots the role in-process with extra flags and returns its base URL;
// it is shut down (and must exit cleanly) when the test ends.
func (r role) start(t *testing.T, extra ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addr := make(addrSink, 1)
	args := append(append([]string{"-addr", "127.0.0.1:0"}, r.args...), extra...)
	var err error
	stopped := make(chan struct{})
	go func() { err = r.run(ctx, args, addr); close(stopped) }()
	t.Cleanup(func() {
		cancel()
		<-stopped
		if err != nil {
			t.Errorf("%s: run returned %v after cancel", r.name, err)
		}
	})
	select {
	case a := <-addr:
		return "http://" + a
	case <-stopped:
		t.Fatalf("%s exited during start: %v", r.name, err)
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not start listening within 10 s", r.name)
	}
	return ""
}

// post sends body and returns the status and the error code of the answer
// ("" unless it is the uniform error body).
func post(t *testing.T, url, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&er)
	return resp.StatusCode, er.Code
}

func get(t *testing.T, url string, header http.Header) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header = header
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestStrictJSONDecoding: unknown fields, trailing data and malformed bodies
// are 400 invalid_json, and a well-formed batch that fails validation carries
// the validation's code — the documented API strictness, identical in both
// roles.
func TestStrictJSONDecoding(t *testing.T) {
	for _, r := range roles {
		base := r.start(t)
		for _, tc := range []struct {
			name, path, body, code string
		}{
			{"malformed", "/streams/s/points", `{`, "invalid_json"},
			{"out-of-range number", "/streams/s/points", `{"points": [[1, 1e999]]}`, "invalid_json"},
			{"unknown field", "/streams/s/points", `{"points": [[1,2]], "pionts": [[3,4]]}`, "invalid_json"},
			{"trailing garbage", "/streams/s/points", `{"points": [[1,2]]} trailing`, "invalid_json"},
			{"second document", "/streams/s/points", `{"points": [[1,2]]}{"points": [[3,4]]}`, "invalid_json"},
			{"unknown field on advance", "/streams/s/advance", `{"to": 5, "at": 6}`, "invalid_json"},
			{"empty batch", "/streams/s/points", `{"points": []}`, "empty_batch"},
			{"zero-dimensional point", "/streams/s/points", `{"points": [[]]}`, "invalid_point"},
			{"ragged batch", "/streams/s/points", `{"points": [[1,2],[3]]}`, "dimension_mismatch"},
		} {
			if status, code := post(t, base+tc.path, "application/json", []byte(tc.body)); status != http.StatusBadRequest || code != tc.code {
				t.Errorf("%s: %s: status %d code %q, want 400 %q", r.name, tc.name, status, code, tc.code)
			}
		}
		if r.name != "shard" {
			continue
		}
		if status, code := post(t, base+"/merge", "application/json", []byte(`{"sketches": [], "extra": 1}`)); status != http.StatusBadRequest || code != "invalid_json" {
			t.Errorf("shard: unknown field on merge: status %d code %q, want 400 invalid_json", status, code)
		}
		// The rejected bodies must not have created the stream as a side effect.
		if resp := get(t, base+"/streams/s/stats", nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("shard: stream exists after rejected bodies: status %d", resp.StatusCode)
		}
	}
}

// TestOverboundPointIsInvalidPoint: a batch no stream admits — the overflow
// repro, finite coordinates beyond the admission bound — answers 400
// invalid_point from both roles over both encodings: before the router fans
// it out, and before a durable shard journals it (it does not even create
// the stream).
func TestOverboundPointIsInvalidPoint(t *testing.T) {
	f, err := metric.FlatFromDataset(metric.Dataset{{1, 0}, {1e200, 0}})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{
		"application/json":        []byte(`{"points": [[1, 0], [1e200, 0]]}`),
		httpapi.BinaryContentType: httpapi.EncodeBinaryIngest(nil, f, nil),
	}
	for _, r := range roles {
		var extra []string
		if r.name == "shard" {
			extra = []string{"-persist-dir", t.TempDir()}
		}
		base := r.start(t, extra...)
		for contentType, body := range bodies {
			if status, code := post(t, base+"/streams/s/points", contentType, body); status != http.StatusBadRequest || code != "invalid_point" {
				t.Errorf("%s: %s: status %d code %q, want 400 invalid_point", r.name, contentType, status, code)
			}
		}
		if r.name == "shard" {
			if resp := get(t, base+"/streams/s/stats", nil); resp.StatusCode != http.StatusNotFound {
				t.Errorf("shard: the refused batches created the stream: status %d", resp.StatusCode)
			}
		}
	}
}

// TestBodyTooLargeIs413: a body over -max-body answers 413 body_too_large
// wherever it overflows — inside the document, or after a complete one — on
// every decoder of both roles, never a generic 400 or 500.
func TestBodyTooLargeIs413(t *testing.T) {
	pad := strings.Repeat(" ", 4<<10)
	var bigJSON strings.Builder
	bigJSON.WriteString(`{"points": [`)
	for i := 0; bigJSON.Len() < 2<<10; i++ {
		if i > 0 {
			bigJSON.WriteString(",")
		}
		bigJSON.WriteString(`[1.0,2.0]`)
	}
	bigJSON.WriteString(`]}`)
	f, err := metric.NewFlat(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 100 {
		if err := f.Append(metric.Point{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	bigFrame := httpapi.EncodeBinaryIngest(nil, f, nil) // 1 620 bytes
	huge := bytes.Repeat([]byte("x"), 2<<10)

	for _, r := range roles {
		base := r.start(t, "-max-body", "1024")
		for _, tc := range []struct {
			name, path, contentType string
			body                    []byte
			shardOnly               bool
		}{
			{"JSON ingest", "/streams/s/points", "application/json", []byte(bigJSON.String()), false},
			{"binary ingest", "/streams/s/points", httpapi.BinaryContentType, bigFrame, false},
			{"JSON ingest overflowing after its document", "/streams/s/points", "application/json",
				[]byte(`{"points":[[1,2]]}` + pad), false},
			{"advance overflowing after its document", "/streams/s/advance", "application/json",
				[]byte(`{"to":5}` + pad), false},
			{"restore", "/streams/s/restore", "application/octet-stream", huge, true},
			{"merge", "/merge", "application/json",
				append(append([]byte(`{"sketches": ["`), huge...), `"]}`...), true},
		} {
			if tc.shardOnly && r.name != "shard" {
				continue
			}
			if status, code := post(t, base+tc.path, tc.contentType, tc.body); status != http.StatusRequestEntityTooLarge || code != "body_too_large" {
				t.Errorf("%s: %s: status %d code %q, want 413 body_too_large", r.name, tc.name, status, code)
			}
		}
		if r.name == "shard" {
			if status, code := post(t, base+"/streams/ok/points", "application/json", []byte(`{"points": [[1,2],[3,4]]}`)); status != http.StatusOK {
				t.Errorf("shard: body under the cap: status %d code %q", status, code)
			}
		}
	}
}

// TestIngestContentNegotiation pins the fallback rules: absent and
// unparseable Content-Types decode as JSON (what the daemon accepted before
// the binary protocol existed), JSON media types decode as JSON, the KCFL
// type selects the binary decoder, and only recognisably foreign types get
// the 415. The body is an empty JSON batch, so the code names the decoder
// that ran.
func TestIngestContentNegotiation(t *testing.T) {
	for _, r := range roles {
		base := r.start(t)
		for _, tc := range []struct {
			contentType string
			status      int
			code        string
		}{
			{"", http.StatusBadRequest, "empty_batch"},
			{"application/json", http.StatusBadRequest, "empty_batch"},
			{"application/json; charset=utf-8", http.StatusBadRequest, "empty_batch"},
			{"text/json", http.StatusBadRequest, "empty_batch"},
			{"not a valid media type", http.StatusBadRequest, "empty_batch"}, // unparseable: JSON fallback
			{httpapi.BinaryContentType, http.StatusBadRequest, "invalid_frame"},
			{"application/octet-stream", http.StatusUnsupportedMediaType, "unsupported_media_type"},
			{"text/plain", http.StatusUnsupportedMediaType, "unsupported_media_type"},
		} {
			req, err := http.NewRequest(http.MethodPost, base+"/streams/n/ingest", strings.NewReader(`{"points": []}`))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var er struct {
				Code string `json:"code"`
			}
			json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != tc.status || er.Code != tc.code {
				t.Errorf("%s: Content-Type %q: status %d code %q, want %d %q",
					r.name, tc.contentType, resp.StatusCode, er.Code, tc.status, tc.code)
			}
		}
	}
}

// TestRequestIDAssignedAndEchoed: a request without an X-Request-ID gets a
// fresh one, a well-formed caller ID is echoed verbatim.
func TestRequestIDAssignedAndEchoed(t *testing.T) {
	for _, r := range roles {
		base := r.start(t)
		id := get(t, base+"/healthz", nil).Header.Get("X-Request-ID")
		if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
			t.Errorf("%s: generated request ID %q, want 16 hex chars", r.name, id)
		}
		sent := http.Header{"X-Request-Id": {"client-abc-123"}}
		if got := get(t, base+"/healthz", sent).Header.Get("X-Request-ID"); got != "client-abc-123" {
			t.Errorf("%s: sent request ID client-abc-123, echoed %q", r.name, got)
		}
	}
}

// TestTraceparentEchoedAsTraceID: an inbound W3C traceparent joins the
// caller's trace, and the response names it in X-Trace-ID.
func TestTraceparentEchoedAsTraceID(t *testing.T) {
	const caller = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	for _, r := range roles {
		base := r.start(t)
		resp := get(t, base+"/healthz", http.Header{"Traceparent": {caller}})
		if got := resp.Header.Get("X-Trace-ID"); got != "0af7651916cd43dd8448eb211c80319c" {
			t.Errorf("%s: X-Trace-ID %q, want the caller's trace ID", r.name, got)
		}
	}
}
