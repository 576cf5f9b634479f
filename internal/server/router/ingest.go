package router

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/obs"
	"coresetclustering/internal/server/engine"
	"coresetclustering/internal/server/httpapi"
)

// FNV-1a 64 parameters, spelled out so the partition function is a frozen
// contract: changing it would re-route every point of every stream.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// shardIndex picks the shard for one point: FNV-1a over the big-endian IEEE
// 754 bits of each coordinate, mod the shard count. Stable per point — the
// same coordinates always route to the same shard, independent of batch
// boundaries, ingest order or which router instance handled the request.
func shardIndex(p metric.Point, n int) int {
	h := fnvOffset
	var buf [8]byte
	for _, c := range p {
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(c))
		for _, b := range buf {
			h ^= uint64(b)
			h *= fnvPrime
		}
	}
	return int(h % uint64(n))
}

// passthroughQuery keeps only the stream-creation parameters on the fanned-
// out URL, so a first ingest through the router creates shard streams with
// the client's parameters exactly as a direct ingest would.
func passthroughQuery(q url.Values) string {
	out := url.Values{}
	for _, key := range []string{"k", "z", "budget", "window", "windowDur"} {
		if v := q.Get(key); v != "" {
			out.Set(key, v)
		}
	}
	return out.Encode()
}

// handleIngest decodes a client batch through the shard daemon's own ingest
// front end (httpapi.DecodeIngest: same negotiation, validation and error
// codes, so a bad batch dies here before any fan-out), partitions it per
// point, and fans the partitions out to the shards as binary frames —
// whatever encoding the client spoke, shards always receive the zero-copy
// flat frame.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	points, ts, _, ok := httpapi.DecodeIngest(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")

	// Partition per point into per-shard flat frames.
	_, part := obs.StartSpan(r.Context(), "partition")
	n := len(s.shards)
	dim := len(points[0])
	parts := make([]*metric.Flat, n)
	partTS := make([][]int64, n)
	for i, p := range points {
		idx := shardIndex(p, n)
		if parts[idx] == nil {
			f, err := metric.NewFlat(dim, len(points)/n+1)
			if err != nil {
				part.End()
				httpapi.Error(w, http.StatusInternalServerError, engine.CodeInternal, err)
				return
			}
			parts[idx] = f
		}
		if err := parts[idx].Append(p); err != nil {
			part.End()
			httpapi.Error(w, http.StatusInternalServerError, engine.CodeInternal, err)
			return
		}
		if ts != nil {
			partTS[idx] = append(partTS[idx], ts[i])
		}
	}
	part.End()

	// Fan the partitions out concurrently; each send is its own child span.
	qs := passthroughQuery(r.URL.Query())
	path := "/streams/" + url.PathEscape(name) + "/points"
	if qs != "" {
		path += "?" + qs
	}
	type partAck struct {
		resp shardResp
		err  error
	}
	acks := make([]*partAck, n)
	var wg sync.WaitGroup
	for idx := range parts {
		if parts[idx] == nil {
			continue
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			sh := s.shards[idx]
			body := httpapi.EncodeBinaryIngest(nil, parts[idx], partTS[idx])
			_, span := obs.StartSpan(r.Context(), "shard.send")
			span.SetAttr("shard", sh.addr)
			span.SetAttr("points", strconv.Itoa(parts[idx].Len()))
			resp, err := s.sendShard(r.Context(), sh, shardReq{method: http.MethodPost, path: path,
				contentType: httpapi.BinaryContentType, body: body}, span)
			if err != nil {
				span.SetAttr("error", err.Error())
			} else {
				span.SetAttr("status", strconv.Itoa(resp.status))
			}
			span.End()
			acks[idx] = &partAck{resp: resp, err: err}
		}(idx)
	}
	wg.Wait()

	// A shard's 4xx means the request itself is wrong (bad params, window
	// mismatch); relay the first one verbatim. Exhausted retries mean the
	// cluster cannot take the batch right now: 502 shard_unavailable.
	var observed int64
	sent := 0
	for idx, ack := range acks {
		if ack == nil {
			continue
		}
		if ack.err != nil {
			httpapi.EngineError(w, &engine.Error{Code: engine.CodeShardUnavailable,
				Err: fmt.Errorf("shard %s: %w", s.shards[idx].addr, ack.err)})
			return
		}
		if ack.resp.status != http.StatusOK {
			relayShardError(w, ack.resp)
			return
		}
		var stats engine.StreamStats
		if err := json.Unmarshal(ack.resp.body, &stats); err != nil {
			httpapi.Error(w, http.StatusBadGateway, engine.CodeShardUnavailable,
				fmt.Errorf("shard %s: unparseable ack: %w", s.shards[idx].addr, err))
			return
		}
		observed += stats.Observed
		sent++
	}
	// Only a name every touched shard acknowledged is worth keeping fresh: a
	// rejected batch may never have created the stream anywhere.
	s.remember(name)
	s.m.IngestBatches.Add(1)
	s.m.IngestPoints.Add(int64(len(points)))
	httpapi.WriteJSON(w, http.StatusOK, ingestAck{
		Stream: name, Points: len(points), Shards: sent, Observed: observed,
	})
}

// ingestAck is the router's ingest acknowledgement: how the batch spread and
// the cluster-wide observed total summed from the shard acks.
type ingestAck struct {
	Stream   string `json:"stream"`
	Points   int    `json:"points"`
	Shards   int    `json:"shards"`
	Observed int64  `json:"observed"`
}

// relayShardError forwards a shard's non-200 response verbatim — same
// status, same body — so clients see exactly the error a direct ingest
// would have produced.
func relayShardError(w http.ResponseWriter, resp shardResp) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// shardReq is one logical request to a shard. ifNoneMatch, when set, makes it
// conditional: a shard whose current ETag matches answers 304 with no body.
type shardReq struct {
	method, path string
	contentType  string
	body         []byte
	ifNoneMatch  string
}

// shardResp is one shard's answer: status, body, the body's ETag (snapshot
// pulls only), and the trace ID its daemon assigned (so router spans can link
// to shard-side traces).
type shardResp struct {
	status  int
	body    []byte
	etag    string
	traceID string
}

// sendShard performs one logical shard request with bounded retries: network
// errors and 5xx responses are re-sent after an exponential backoff (50ms
// doubling, capped at 500ms) up to -shard-retries times; 2xx-4xx responses
// return immediately. When a span is supplied, the outbound request carries
// its W3C traceparent so the shard joins the router's trace, and the shard's
// X-Trace-ID lands on the span for cross-daemon correlation.
func (s *server) sendShard(ctx context.Context, sh *shard, rq shardReq, span *obs.Span) (shardResp, error) {
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; ; attempt++ {
		s.m.ShardSends.With(sh.addr).Add(1)
		resp, err := s.sendOnce(ctx, sh, rq, span)
		if err == nil && resp.status < http.StatusInternalServerError {
			return resp, nil
		}
		if err == nil {
			err = fmt.Errorf("status %d: %s", resp.status, shardErrText(resp.body))
		}
		lastErr = err
		if attempt >= s.cfg.retries || ctx.Err() != nil {
			s.m.ShardFailures.With(sh.addr).Add(1)
			return shardResp{}, lastErr
		}
		s.m.ShardRetries.With(sh.addr).Add(1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return shardResp{}, ctx.Err()
		}
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// sendOnce is a single attempt of sendShard.
func (s *server) sendOnce(ctx context.Context, sh *shard, rq shardReq, span *obs.Span) (shardResp, error) {
	reqCtx, cancel := context.WithTimeout(ctx, s.cfg.shardTimeout)
	defer cancel()
	var rd io.Reader
	if rq.body != nil {
		rd = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequestWithContext(reqCtx, rq.method, sh.base+rq.path, rd)
	if err != nil {
		return shardResp{}, err
	}
	if rq.contentType != "" {
		req.Header.Set("Content-Type", rq.contentType)
	}
	if rq.ifNoneMatch != "" {
		req.Header.Set("If-None-Match", rq.ifNoneMatch)
	}
	if span != nil {
		req.Header.Set("traceparent", span.Traceparent())
	}
	if reqID := httpapi.RequestID(ctx); reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	s.m.ShardSendDur.With(sh.addr).ObserveDuration(time.Since(start))
	if err != nil {
		return shardResp{}, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBody+1))
	if err != nil {
		return shardResp{}, err
	}
	if int64(len(respBody)) > s.cfg.MaxBody {
		return shardResp{}, fmt.Errorf("response exceeds %d bytes", s.cfg.MaxBody)
	}
	out := shardResp{status: resp.StatusCode, body: respBody,
		etag: resp.Header.Get("ETag"), traceID: resp.Header.Get("X-Trace-ID")}
	if span != nil && out.traceID != "" {
		span.SetAttr("shardTraceId", out.traceID)
	}
	return out, nil
}

// shardErrText extracts the "error" message of a shard's JSON error body,
// falling back to a bounded raw excerpt.
func shardErrText(body []byte) string {
	var er struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		return er.Error
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return string(body)
}

// shardErrCode extracts the machine-readable code of a shard's JSON error
// body ("" when the body is not the daemon's error shape).
func shardErrCode(body []byte) string {
	var er struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(body, &er) == nil {
		return er.Code
	}
	return ""
}
