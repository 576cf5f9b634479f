package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"coresetclustering/internal/metric"
)

// BenchmarkIngestHTTP measures the full handler path — route, decode,
// validate, apply, respond — for the same 64-point batch through each wire
// protocol, with no persistence so the decode paths dominate. The CI ingest
// gate derives points/s from ns/op (the batch size is identical) and asserts
// binary stays ≥2× JSON; allocs/op guards the pooled JSON decode buffers and
// the binary path's zero per-point allocation against regression.
func BenchmarkIngestHTTP(b *testing.B) {
	points := blobs(64, 8, 1)
	jsonBytes, err := json.Marshal(batch(points))
	if err != nil {
		b.Fatal(err)
	}
	f, err := metric.FlatFromDataset(points)
	if err != nil {
		b.Fatal(err)
	}
	binBytes := EncodeBinaryIngest(nil, f, nil)

	for _, bc := range []struct {
		name        string
		contentType string
		body        []byte
	}{
		{"proto=json", "application/json", jsonBytes},
		{"proto=binary", BinaryContentType, binBytes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := newServer(config{k: 4, budget: 32}).routes()
			// Create the stream outside the timed loop.
			warm := httptest.NewRecorder()
			h.ServeHTTP(warm, benchIngestReq(bc.contentType, bc.body))
			if warm.Code != http.StatusOK {
				b.Fatalf("warm-up ingest: status %d: %s", warm.Code, warm.Body.String())
			}
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, benchIngestReq(bc.contentType, bc.body))
				if w.Code != http.StatusOK {
					b.Fatalf("ingest: status %d: %s", w.Code, w.Body.String())
				}
			}
		})
	}
}

func benchIngestReq(contentType string, body []byte) *http.Request {
	req := httptest.NewRequest("POST", "/streams/bench/points", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	return req
}
