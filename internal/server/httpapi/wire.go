package httpapi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"sync"

	kcenter "coresetclustering"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/obs"
	"coresetclustering/internal/server/engine"
)

// Binary ingest wire format. The request body of a binary ingest is one
// metric.Flat frame (magic "KCFL", see internal/metric) — exactly the bytes
// SaveFlatFile writes, so a dataset file can be POSTed verbatim — optionally
// followed by a timestamp trailer for window streams:
//
//	offset  size      field
//	0       4         trailer magic "KCTS"
//	4       8*count   count int64 timestamps, big-endian, one per point,
//	                  non-negative and non-decreasing
//
// The trailer's count is the frame's point count; nothing may follow it.
// Negotiation is by Content-Type: BinaryContentType selects the binary
// decoder, JSON (or no Content-Type) the JSON one, anything else is 415
// unsupported_media_type.
const (
	// BinaryContentType is the Content-Type of the KCFL binary ingest protocol.
	BinaryContentType = "application/x-kcenter-flat"
	tsTrailerMagic    = "KCTS"
)

// ingestBinary negotiates an ingest request's decoder by Content-Type: KCFL
// (binary), or JSON — also for an absent or unparseable Content-Type, as the
// daemon accepted before the binary protocol existed. Any other media type
// is unsupported (ok false).
func ingestBinary(r *http.Request) (kcfl, ok bool) {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	switch {
	case err != nil || mt == "application/json" || mt == "text/json":
		return false, true
	case mt == BinaryContentType:
		return true, true
	}
	return false, false
}

// DecodeBinaryIngest decodes a binary ingest body: one flat frame plus the
// optional timestamp trailer. On failure it returns the error code the
// response should carry (invalid_frame for structural defects, empty_batch
// for a frame of zero points). It checks structure only: the values are
// DecodeIngest's to admit, as for JSON.
func DecodeBinaryIngest(body []byte) (f *metric.Flat, ts []int64, code string, err error) {
	f, rest, err := metric.DecodeFlatFrame(body)
	if err != nil {
		return nil, nil, engine.CodeInvalidFrame, err
	}
	if f.Len() == 0 {
		return nil, nil, engine.CodeEmptyBatch, errors.New("empty batch")
	}
	if len(rest) == 0 {
		return f, nil, "", nil
	}
	if len(rest) < len(tsTrailerMagic) || string(rest[:len(tsTrailerMagic)]) != tsTrailerMagic {
		return nil, nil, engine.CodeInvalidFrame,
			fmt.Errorf("%d trailing bytes after the point frame are not a timestamp trailer", len(rest))
	}
	rest = rest[len(tsTrailerMagic):]
	if len(rest) != 8*f.Len() {
		return nil, nil, engine.CodeInvalidFrame,
			fmt.Errorf("timestamp trailer holds %d bytes, want %d (8 per point)", len(rest), 8*f.Len())
	}
	ts = make([]int64, f.Len())
	for i := range ts {
		ts[i] = int64(binary.BigEndian.Uint64(rest[8*i:]))
	}
	return f, ts, "", nil
}

// EncodeBinaryIngest encodes a batch (and optional timestamps) as a binary
// ingest body — the encoder half of DecodeBinaryIngest, shared by the router's
// per-shard fan-out, the load generator and the tests.
func EncodeBinaryIngest(dst []byte, f *metric.Flat, ts []int64) []byte {
	dst = f.AppendFrame(dst)
	if ts != nil {
		dst = append(dst, tsTrailerMagic...)
		for _, v := range ts {
			dst = binary.BigEndian.AppendUint64(dst, uint64(v))
		}
	}
	return dst
}

// ingestRequest is the JSON ingest body.
type ingestRequest struct {
	Points kcenter.Dataset `json:"points"`
	// Timestamps optionally carries one non-negative, non-decreasing int64
	// per point (window streams only), in the same caller-defined units as
	// the stream's ?windowDur= bound.
	Timestamps []int64 `json:"timestamps,omitempty"`
}

// ingestCarrier is the pooled per-request scratch state of the ingest front
// end: the raw body buffer and the decoded JSON request, both reused across
// requests so steady-state ingest does not re-allocate its decode buffers
// (what DecodeIngest returns is copied into fresh storage first — nothing
// pooled ever leaks into stream state).
type ingestCarrier struct {
	body bytes.Buffer
	req  ingestRequest
}

var ingestPool = sync.Pool{New: func() any { return new(ingestCarrier) }}

// decode reads and decodes the body in the negotiated encoding: JSON reuses
// the pooled point slices (encoding/json resets length, then appends) and
// nils the timestamps, so absence means nil. It checks structure only.
func (c *ingestCarrier) decode(w http.ResponseWriter, r *http.Request, kcfl bool, span *obs.Span) (batch metric.Dataset, ts []int64, binaryBytes int, ok bool) {
	if kcfl {
		span.SetAttr("proto", "binary")
		if !readBody(w, r, &c.body, engine.CodeInvalidFrame) {
			return nil, nil, 0, false
		}
		f, ts, code, err := DecodeBinaryIngest(c.body.Bytes())
		if err != nil {
			Error(w, http.StatusBadRequest, code, err)
			return nil, nil, 0, false
		}
		return f.Dataset(), ts, c.body.Len(), true
	}
	span.SetAttr("proto", "json")
	if c.req.Points != nil {
		c.req.Points = c.req.Points[:0]
	}
	c.req.Timestamps = nil
	ok = readBody(w, r, &c.body, engine.CodeInvalidJSON) && decodeStrict(w, c.body.Bytes(), &c.req)
	return c.req.Points, c.req.Timestamps, -1, ok
}

// DecodeIngest is the ingest front end of both roles. It negotiates the
// decoder by Content-Type and decodes the body from pooled buffers under a
// "decode" span (a KCFL frame straight into contiguous storage; JSON
// strictly), then applies the admission rule (engine.ValidateBatch) under a
// "validate" span, so both roles refuse a batch no stream would admit with
// the same code before any stream or shard sees it. A JSON batch is then
// copied into one contiguous allocation laid out for the batched kernels.
// The batch and timestamps returned are the caller's to keep; binaryBytes is
// the body size of a binary batch and -1 for JSON. On failure it writes the
// error response itself and ok is false.
func DecodeIngest(w http.ResponseWriter, r *http.Request) (batch metric.Dataset, ts []int64, binaryBytes int, ok bool) {
	kcfl, ok := ingestBinary(r)
	if !ok {
		Error(w, http.StatusUnsupportedMediaType, engine.CodeUnsupportedMedia,
			fmt.Errorf("unsupported Content-Type %q (use application/json or %s)",
				r.Header.Get("Content-Type"), BinaryContentType))
		return nil, nil, 0, false
	}
	c := ingestPool.Get().(*ingestCarrier)
	defer ingestPool.Put(c)
	_, decode := obs.StartSpan(r.Context(), "decode")
	batch, ts, binaryBytes, ok = c.decode(w, r, kcfl, decode)
	decode.End()
	if !ok {
		return nil, nil, 0, false
	}
	_, validate := obs.StartSpan(r.Context(), "validate")
	defer validate.End()
	if err := engine.ValidateBatch(batch, ts); err != nil {
		EngineError(w, err)
		return nil, nil, 0, false
	}
	if binaryBytes < 0 {
		f, err := metric.FlatFromDataset(batch)
		if err != nil {
			Error(w, http.StatusInternalServerError, engine.CodeInternal, err)
			return nil, nil, 0, false
		}
		batch = f.Dataset()
	}
	return batch, ts, binaryBytes, true
}
