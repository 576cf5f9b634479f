package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"coresetclustering/internal/benchgate"
	"coresetclustering/internal/metric"
)

// benchProtoIngest builds a server with no persistence, so the decode paths
// dominate, and returns a closure that posts the same 64-point batch through
// one wire protocol ("json" or "binary"), plus the batch's encoded size.
func benchProtoIngest(b *testing.B, proto string) (post func(), size int) {
	points := blobs(64, 8, 1)
	contentType := BinaryContentType
	f, err := metric.FlatFromDataset(points)
	if err != nil {
		b.Fatal(err)
	}
	body := EncodeBinaryIngest(nil, f, nil)
	if proto == "json" {
		contentType = "application/json"
		if body, err = json.Marshal(batch(points)); err != nil {
			b.Fatal(err)
		}
	}
	h := newServer(config{k: 4, budget: 32}).routes()
	post = func() {
		req := httptest.NewRequest("POST", "/streams/bench/points", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("%s ingest: status %d: %s", proto, w.Code, w.Body.String())
		}
	}
	post() // create the stream outside the timed loop
	return post, len(body)
}

// BenchmarkIngestHTTP measures the full handler path — route, decode,
// validate, apply, respond — for the same 64-point batch through each wire
// protocol; BenchmarkGateIngestBinary gates the time ratio. It stays for
// allocs/op, which only it reports: run it by hand
// (`go test -run XXX -bench IngestHTTP ./internal/server/httpapi`) to see the
// pooled JSON decode buffers and the binary path's zero per-point allocation
// hold. No gate or artifact reads it.
func BenchmarkIngestHTTP(b *testing.B) {
	for _, proto := range []string{"json", "binary"} {
		b.Run("proto="+proto, func(b *testing.B) {
			post, size := benchProtoIngest(b, proto)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}

// BenchmarkGateIngestBinary is the wire-protocol gate (protocol in
// internal/benchgate): a binary flat-frame ingest of the 64-point batch must
// take at most half as long as a JSON one, that is sustain at least 2x the
// JSON handler's points/s.
func BenchmarkGateIngestBinary(b *testing.B) {
	jsonPost, _ := benchProtoIngest(b, "json")
	binaryPost, _ := benchProtoIngest(b, "binary")
	benchgate.MedianRatio(b, "json/binary", 2, math.Inf(1), jsonPost, binaryPost)
}
