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

// ingestMedia is the outcome of Content-Type negotiation on an ingest route.
type ingestMedia int

const (
	mediaJSON ingestMedia = iota
	mediaBinary
	mediaUnsupported
)

// negotiateIngest picks the decoder for an ingest request. An absent or
// unparseable Content-Type falls back to JSON (matching what the daemon
// accepted before the binary protocol existed).
func negotiateIngest(r *http.Request) ingestMedia {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return mediaJSON
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return mediaJSON
	}
	switch mt {
	case BinaryContentType:
		return mediaBinary
	case "application/json", "text/json":
		return mediaJSON
	default:
		return mediaUnsupported
	}
}

// DecodeBinaryIngest decodes a binary ingest body: one flat frame plus the
// optional timestamp trailer. On failure it returns the error code the
// response should carry (invalid_frame for structural defects,
// invalid_timestamps for a well-formed trailer with bad values, empty_batch
// for a frame of zero points).
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
		v := int64(binary.BigEndian.Uint64(rest[8*i:]))
		if v < 0 {
			return nil, nil, engine.CodeInvalidTimestamps, fmt.Errorf("timestamp %d is negative (%d)", i, v)
		}
		if i > 0 && v < ts[i-1] {
			return nil, nil, engine.CodeInvalidTimestamps,
				fmt.Errorf("timestamp %d (%d) precedes timestamp %d (%d)", i, v, i-1, ts[i-1])
		}
		ts[i] = v
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

// DecodeIngest is the ingest decode front end of both roles. It negotiates
// the decoder by Content-Type and reads the body into pooled buffers under a
// "decode" span. A KCFL frame decodes straight into contiguous storage with
// zero per-point allocations and no JSON anywhere; a JSON body is decoded
// strictly (the point slices reused by encoding/json's
// reset-length-then-append semantics, timestamps nilled so absence means nil),
// then fully validated and copied into one contiguous allocation laid out the
// way the batched distance kernels want, under a "validate" span. The batch
// and timestamps returned are the caller's to keep; binaryBytes is the body
// size of a binary batch and -1 for JSON. On failure it writes the error
// response itself and ok is false.
func DecodeIngest(w http.ResponseWriter, r *http.Request) (batch metric.Dataset, ts []int64, binaryBytes int, ok bool) {
	media := negotiateIngest(r)
	if media == mediaUnsupported {
		Error(w, http.StatusUnsupportedMediaType, engine.CodeUnsupportedMedia,
			fmt.Errorf("unsupported Content-Type %q (use application/json or %s)",
				r.Header.Get("Content-Type"), BinaryContentType))
		return nil, nil, 0, false
	}
	c := ingestPool.Get().(*ingestCarrier)
	defer ingestPool.Put(c)
	_, decode := obs.StartSpan(r.Context(), "decode")
	if media == mediaBinary {
		decode.SetAttr("proto", "binary")
		defer decode.End()
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
	decode.SetAttr("proto", "json")
	if c.req.Points != nil {
		c.req.Points = c.req.Points[:0]
	}
	c.req.Timestamps = nil
	ok = readBody(w, r, &c.body, engine.CodeInvalidJSON) && decodeStrict(w, c.body.Bytes(), &c.req)
	decode.End()
	if !ok {
		return nil, nil, 0, false
	}
	_, validate := obs.StartSpan(r.Context(), "validate")
	defer validate.End()
	if err := engine.ValidateBatch(c.req.Points, c.req.Timestamps); err != nil {
		EngineError(w, err)
		return nil, nil, 0, false
	}
	f, err := metric.FlatFromDataset(c.req.Points)
	if err != nil {
		Error(w, http.StatusInternalServerError, engine.CodeInternal, err)
		return nil, nil, 0, false
	}
	return f.Dataset(), c.req.Timestamps, -1, true
}
