package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	kcenter "coresetclustering"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/server/engine"
)

// binaryBody encodes points (and optional timestamps) as a binary ingest
// request body.
func binaryBody(t *testing.T, points kcenter.Dataset, ts []int64) []byte {
	t.Helper()
	f, err := metric.FlatFromDataset(points)
	if err != nil {
		t.Fatal(err)
	}
	return EncodeBinaryIngest(nil, f, ts)
}

// postBytes posts a raw body with an explicit Content-Type and returns the
// status code plus the decoded error code ("" on success).
func postBytes(t *testing.T, url, contentType string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, ""
	}
	var er errorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	return resp.StatusCode, er.Code
}

// TestBinaryIngestEquivalence is the protocol-equivalence contract: the same
// points ingested through JSON and through the binary protocol must produce
// byte-identical stream snapshots — for insertion-only streams and for window
// streams with timestamps (carried in the KCTS trailer on the binary side).
func TestBinaryIngestEquivalence(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		jsonSrv := newTestServer(t, config{k: 3, budget: 30})
		binSrv := newTestServer(t, config{k: 3, budget: 30})
		for i := int64(0); i < 3; i++ {
			points := blobs(40, 4, i)
			if resp := doJSON(t, "POST", jsonSrv.URL+"/streams/s/points", batch(points), nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("JSON ingest %d: status %d", i, resp.StatusCode)
			}
			if status, code := postBytes(t, binSrv.URL+"/streams/s/points", BinaryContentType, binaryBody(t, points, nil)); status != http.StatusOK {
				t.Fatalf("binary ingest %d: status %d code %q", i, status, code)
			}
		}
		if got, want := snapshotBytes(t, binSrv.URL, "s"), snapshotBytes(t, jsonSrv.URL, "s"); !bytes.Equal(got, want) {
			t.Fatalf("binary-fed snapshot differs from JSON-fed snapshot (%d vs %d bytes)", len(got), len(want))
		}
	})
	t.Run("window-timestamped", func(t *testing.T) {
		jsonSrv := newTestServer(t, config{k: 3, budget: 30})
		binSrv := newTestServer(t, config{k: 3, budget: 30})
		ts := int64(0)
		for i := int64(0); i < 3; i++ {
			points := blobs(30, 2, 100+i)
			stamps := make([]int64, len(points))
			for j := range stamps {
				ts += int64(j % 3)
				stamps[j] = ts
			}
			req := batch(points)
			req.Timestamps = stamps
			if resp := doJSON(t, "POST", jsonSrv.URL+"/streams/w/points?window=50&windowDur=40", req, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("JSON ingest %d: status %d", i, resp.StatusCode)
			}
			if status, code := postBytes(t, binSrv.URL+"/streams/w/points?window=50&windowDur=40", BinaryContentType, binaryBody(t, points, stamps)); status != http.StatusOK {
				t.Fatalf("binary ingest %d: status %d code %q", i, status, code)
			}
		}
		if got, want := snapshotBytes(t, binSrv.URL, "w"), snapshotBytes(t, jsonSrv.URL, "w"); !bytes.Equal(got, want) {
			t.Fatalf("binary-fed window snapshot differs from JSON-fed (%d vs %d bytes)", len(got), len(want))
		}
	})
}

// TestBinaryIngestTypedErrors drives malformed binary bodies at a live server
// and asserts each is rejected with its typed code — and that rejections never
// perturb stream state.
func TestBinaryIngestTypedErrors(t *testing.T) {
	srv := newTestServer(t, config{k: 2, budget: 16})
	// Seed a 2-dimensional stream so dimension mismatches are reachable.
	if status, code := postBytes(t, srv.URL+"/streams/t/points", BinaryContentType,
		binaryBody(t, kcenter.Dataset{{1, 2}}, nil)); status != http.StatusOK {
		t.Fatalf("seed ingest: status %d code %q", status, code)
	}

	good := binaryBody(t, kcenter.Dataset{{3, 4}, {5, 6}}, nil)
	corrupt := func(pos int, val byte) []byte {
		b := bytes.Clone(good)
		b[pos] = val
		return b
	}
	goodTS := binaryBody(t, kcenter.Dataset{{3, 4}, {5, 6}}, []int64{5, 7})
	emptyFrame := func() []byte {
		var b []byte
		b = append(b, "KCFL"...)
		b = append(b, 0, 1, 0, 0)               // version 1, reserved 0
		b = binary.BigEndian.AppendUint32(b, 2) // dim
		b = binary.BigEndian.AppendUint64(b, 0) // count
		return b
	}()

	cases := []struct {
		name        string
		contentType string
		body        []byte
		status      int
		code        string
	}{
		{"bad-magic", BinaryContentType, corrupt(0, 'X'), 400, engine.CodeInvalidFrame},
		{"bad-version", BinaryContentType, corrupt(4, 9), 400, engine.CodeInvalidFrame},
		{"truncated-header", BinaryContentType, good[:12], 400, engine.CodeInvalidFrame},
		{"truncated-payload", BinaryContentType, good[:len(good)-4], 400, engine.CodeInvalidFrame},
		{"count-beyond-payload", BinaryContentType, corrupt(19, 200), 400, engine.CodeInvalidFrame},
		{"empty-batch", BinaryContentType, emptyFrame, 400, engine.CodeEmptyBatch},
		{"trailing-junk", BinaryContentType, append(bytes.Clone(good), 0xAB, 0xCD), 400, engine.CodeInvalidFrame},
		{"short-trailer", BinaryContentType, goodTS[:len(goodTS)-8], 400, engine.CodeInvalidFrame},
		{"wrong-dimension", BinaryContentType, binaryBody(t, kcenter.Dataset{{1, 2, 3}}, nil), 400, engine.CodeDimensionMismatch},
		{"timestamps-on-plain-stream", BinaryContentType, goodTS, 400, engine.CodeNotWindowed},
		{"unsupported-media", "application/xml", good, 415, engine.CodeUnsupportedMedia},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code := postBytes(t, srv.URL+"/streams/t/points", tc.contentType, tc.body)
			if status != tc.status || code != tc.code {
				t.Errorf("status %d code %q, want %d %q", status, code, tc.status, tc.code)
			}
		})
	}
	t.Run("negative-timestamp", func(t *testing.T) {
		body := binaryBody(t, kcenter.Dataset{{1, 2}}, []int64{-3})
		status, code := postBytes(t, srv.URL+"/streams/neg/points?window=10", BinaryContentType, body)
		if status != 400 || code != engine.CodeInvalidTimestamps {
			t.Errorf("status %d code %q, want 400 %q", status, code, engine.CodeInvalidTimestamps)
		}
	})
	t.Run("decreasing-timestamps", func(t *testing.T) {
		body := binaryBody(t, kcenter.Dataset{{1, 2}, {3, 4}}, []int64{9, 4})
		status, code := postBytes(t, srv.URL+"/streams/dec/points?window=10", BinaryContentType, body)
		if status != 400 || code != engine.CodeInvalidTimestamps {
			t.Errorf("status %d code %q, want 400 %q", status, code, engine.CodeInvalidTimestamps)
		}
	})

	// None of the rejections moved the stream.
	var st engine.StreamStats
	doJSON(t, "GET", srv.URL+"/streams/t/stats", nil, &st)
	if st.Observed != 1 {
		t.Errorf("observed %d after rejected batches, want 1", st.Observed)
	}
}

// TestIngestRouteAlias: /ingest is the documented binary-era route and
// /points the original; both serve the same negotiated handler.
func TestIngestRouteAlias(t *testing.T) {
	srv := newTestServer(t, config{k: 2, budget: 16})
	if status, code := postBytes(t, srv.URL+"/streams/a/ingest", BinaryContentType,
		binaryBody(t, kcenter.Dataset{{1, 2}}, nil)); status != http.StatusOK {
		t.Fatalf("binary via /ingest: status %d code %q", status, code)
	}
	if resp := doJSON(t, "POST", srv.URL+"/streams/a/ingest", batch(kcenter.Dataset{{3, 4}}), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON via /ingest: status %d", resp.StatusCode)
	}
	var st engine.StreamStats
	doJSON(t, "GET", srv.URL+"/streams/a/stats", nil, &st)
	if st.Observed != 2 {
		t.Errorf("observed %d via /ingest alias, want 2", st.Observed)
	}
}

// TestJSONIngestPoolReuse hammers the pooled JSON decode path with differing
// batches — with and without timestamps interleaved — to prove carrier reuse
// never leaks one request's points or timestamps into another.
func TestJSONIngestPoolReuse(t *testing.T) {
	srv := newTestServer(t, config{k: 3, budget: 30})
	// Timestamped batch first: its Timestamps must NOT bleed into the
	// untimestamped batch that reuses the carrier next.
	req := batch(blobs(20, 2, 1))
	req.Timestamps = make([]int64, 20)
	for i := range req.Timestamps {
		req.Timestamps[i] = int64(i)
	}
	if resp := doJSON(t, "POST", srv.URL+"/streams/w/points?window=50", req, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("timestamped ingest: status %d", resp.StatusCode)
	}
	for i := int64(0); i < 20; i++ {
		n := 1 + int(i%7)*5
		if resp := doJSON(t, "POST", srv.URL+"/streams/p/points", batch(blobs(n, 3, i)), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d", i, resp.StatusCode)
		}
	}
	var st engine.StreamStats
	doJSON(t, "GET", srv.URL+"/streams/p/stats", nil, &st)
	var want int64
	for i := int64(0); i < 20; i++ {
		want += 1 + (i%7)*5
	}
	if st.Observed != want {
		t.Errorf("observed %d, want %d", st.Observed, want)
	}
}

// TestMetricsBinaryAndGroupCommitSeries pins the new observability series with
// exact values: sequential requests against a group-commit store produce one
// commit cycle of depth 1 per journaled mutation, and the binary counters
// track exactly the acknowledged binary bodies (rejected ones don't count).
func TestMetricsBinaryAndGroupCommitSeries(t *testing.T) {
	dir := t.TempDir()
	srv := newServer(config{k: 3, budget: 30})
	store, err := persist.Open(dir, persist.Options{
		Fsync: persist.FsyncAlways,
		Hooks: srv.eng.Metrics.PersistHooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv.eng.Store = store
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)

	points := blobs(10, 3, 1)
	body := binaryBody(t, points, nil)
	for i := 0; i < 2; i++ {
		if status, code := postBytes(t, ts.URL+"/streams/s/points", BinaryContentType, body); status != http.StatusOK {
			t.Fatalf("binary ingest %d: status %d code %q", i, status, code)
		}
	}
	if resp := doJSON(t, "POST", ts.URL+"/streams/s/points", batch(blobs(5, 3, 2)), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON ingest: status %d", resp.StatusCode)
	}
	// A rejected binary body must not move the binary counters.
	if status, _ := postBytes(t, ts.URL+"/streams/s/points", BinaryContentType, body[:10]); status != http.StatusBadRequest {
		t.Fatalf("truncated frame: status %d, want 400", status)
	}

	scrape, _ := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		// 2 binary bodies of 20 header bytes + 10*3*8 payload each.
		fmt.Sprintf("kcenterd_ingest_binary_bytes_total %d", 2*len(body)),
		"kcenterd_ingest_binary_points_total 20",
		"kcenterd_ingest_points_total 25",
		"kcenterd_ingest_batches_total 3",
		// Sequential writers: each journaled batch is its own commit cycle,
		// and every cycle has depth exactly 1.
		"kcenterd_wal_group_commits_total 3",
		`kcenterd_wal_group_commit_depth_bucket{le="1"} 3`,
		"kcenterd_wal_group_commit_depth_sum 3",
		"kcenterd_wal_group_commit_depth_count 3",
		"# TYPE kcenterd_wal_group_commit_duration_seconds histogram",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// FuzzBinaryIngestDecode: the binary decoder must never panic, must return a
// typed code with every error, and must hand back internally consistent
// results on success. (It checks structure only; admitting the values is
// DecodeIngest's step after it, the same for both encodings.)
func FuzzBinaryIngestDecode(f *testing.F) {
	good, err := metric.FlatFromDataset(kcenter.Dataset{{1, 2}, {3, 4}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeBinaryIngest(nil, good, nil))
	f.Add(EncodeBinaryIngest(nil, good, []int64{5, 9}))
	f.Add([]byte("KCFL"))
	f.Add([]byte{})
	f.Add(EncodeBinaryIngest(nil, good, nil)[:21])
	huge := EncodeBinaryIngest(nil, good, nil)
	huge[12] = 0xFF // count header far beyond the payload
	f.Add(huge)
	junk := append(EncodeBinaryIngest(nil, good, nil), "KCTSxx"...)
	f.Add(junk)

	f.Fuzz(func(t *testing.T, data []byte) {
		flat, ts, code, err := DecodeBinaryIngest(data)
		if err != nil {
			switch code {
			case engine.CodeInvalidFrame, engine.CodeEmptyBatch:
			default:
				t.Fatalf("error %v carries unknown code %q", err, code)
			}
			return
		}
		if code != "" {
			t.Fatalf("success with non-empty code %q", code)
		}
		if flat == nil || flat.Len() == 0 {
			t.Fatal("success with nil or empty batch")
		}
		if ts != nil && len(ts) != flat.Len() {
			t.Fatalf("%d timestamps for %d points", len(ts), flat.Len())
		}
		// Accepted input must re-encode to exactly the bytes decoded.
		if got := EncodeBinaryIngest(nil, flat, ts); !bytes.Equal(got, data) {
			t.Fatalf("re-encode differs: %d bytes in, %d out", len(data), len(got))
		}
	})
}
