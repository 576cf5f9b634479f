package httpapi

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	kcenter "coresetclustering"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/obs"
	"coresetclustering/internal/server/engine"
)

type ingestRequest struct {
	Points kcenter.Dataset `json:"points"`
	// Timestamps optionally carries one non-negative, non-decreasing int64
	// per point (window streams only), in the same caller-defined units as
	// the stream's ?windowDur= bound.
	Timestamps []int64 `json:"timestamps,omitempty"`
}

// decodeJSON strictly decodes a JSON request body: unknown fields are
// rejected, trailing data after the document is rejected, and a body over
// the -max-body cap maps to 413 body_too_large. It writes the error response
// itself and reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, codeInvalidJSON, fmt.Errorf("invalid JSON body: %w", err))
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, codeInvalidJSON, errors.New("trailing data after JSON body"))
		return false
	}
	return true
}

// handleIngest serves both ingest routes (/points and its alias /ingest),
// negotiating the decoder by Content-Type: JSON stays the default, and
// "application/x-kcenter-flat" selects the binary flat-frame decoder — no
// JSON anywhere on that path. Both decoders feed the same engine ingest
// core, so validation, journaling, atomicity and the response shape are
// identical.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	switch negotiateIngest(r) {
	case mediaBinary:
		s.handleIngestBinary(w, r)
	case mediaJSON:
		s.handleIngestJSON(w, r)
	default:
		httpError(w, http.StatusUnsupportedMediaType, codeUnsupportedMedia,
			fmt.Errorf("unsupported Content-Type %q (use application/json or %s)",
				r.Header.Get("Content-Type"), binaryContentType))
	}
}

// handleIngestJSON is the JSON decode front end: pooled decode buffers (the
// carrier), strict decoding, full up-front validation, then one contiguous
// copy of the batch into stream-owned storage.
func (s *server) handleIngestJSON(w http.ResponseWriter, r *http.Request) {
	c := ingestPool.Get().(*ingestCarrier)
	defer ingestPool.Put(c)
	_, decode := obs.StartSpan(r.Context(), "decode")
	decode.SetAttr("proto", "json")
	ok := c.readIngestJSON(w, r)
	decode.End()
	if !ok {
		return
	}
	_, validate := obs.StartSpan(r.Context(), "validate")
	if err := engine.ValidateBatch(c.req.Points, c.req.Timestamps); err != nil {
		validate.End()
		engineError(w, err)
		return
	}
	// The pooled points are about to be reused by another request; what the
	// stream keeps must be a private contiguous copy.
	batch, err := compactBatch(c.req.Points)
	validate.End()
	if err != nil {
		httpError(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	s.ingestBatch(w, r, batch, c.req.Timestamps, -1)
}

// handleIngestBinary is the binary decode front end: the body is one flat
// frame (plus optional timestamp trailer), decoded straight into contiguous
// storage with zero per-point allocations and no JSON anywhere.
func (s *server) handleIngestBinary(w http.ResponseWriter, r *http.Request) {
	_, decode := obs.StartSpan(r.Context(), "decode")
	decode.SetAttr("proto", "binary")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		decode.End()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, codeInvalidFrame, fmt.Errorf("reading request body: %w", err))
		return
	}
	f, ts, code, err := decodeBinaryIngest(body)
	decode.End()
	if err != nil {
		httpError(w, http.StatusBadRequest, code, err)
		return
	}
	s.ingestBatch(w, r, f.Dataset(), ts, len(body))
}

// ingestBatch hands a fully validated, stream-owned batch to the engine and
// writes its answer. All journaling, atomicity and group-commit mechanics
// live in engine.Ingest; this shim only resolves creation parameters and
// translates the outcome to the wire.
func (s *server) ingestBatch(w http.ResponseWriter, r *http.Request, batch metric.Dataset, timestamps []int64, binaryBytes int) {
	stats, err := s.eng.Ingest(r.Context(), r.PathValue("name"), batch, timestamps, binaryBytes, s.createParams(r))
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

// advanceRequest moves a window stream's clock forward without observing a
// point, evicting buckets that age out of a duration window.
type advanceRequest struct {
	To int64 `json:"to"`
}

func (s *server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req advanceRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	stats, err := s.eng.Advance(r.Context(), r.PathValue("name"), req.To)
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

// handleStats is the introspection endpoint: per-stream counters, working
// memory, space name and (for window streams) the live window state. Answered
// entirely from the published view and lock-free counters — it never takes
// the stream's ingest mutex.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := s.eng.Stats(r.PathValue("name"))
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

type centersResponse struct {
	streamStats
	Centers kcenter.Dataset `json:"centers"`
}

// handleCenters extracts the current k centers from the newest published
// view, never taking the stream's ingest mutex: the answer is a consistent
// snapshot as of the view's version, and a repeated query at an unchanged
// version is a cache hit (the view memoises its extraction).
func (s *server) handleCenters(w http.ResponseWriter, r *http.Request) {
	stats, centers, err := s.eng.Centers(r.Context(), r.PathValue("name"))
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, centersResponse{streamStats: stats, Centers: centers})
}

// handleSnapshot serializes the newest published view — wait-free like the
// other reads, and memoised, so back-to-back snapshots at an unchanged
// version serialize once and answer byte-identically. The response carries
// the sketch's strong ETag, and a request whose If-None-Match already names
// it is answered 304 with no body: a router (or any poller) holding the
// bytes pays one header round trip, not a transfer. Serves GET and, as the
// wire-compatible alias, POST.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, tag, err := s.eng.Snapshot(r.Context(), name)
	if err != nil {
		engineError(w, err)
		return
	}
	if NotModified(w, r, StrongETag(tag)) {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(snap)))
	w.WriteHeader(http.StatusOK)
	if n, err := w.Write(snap); err != nil {
		// The response status is already on the wire; all that is left is to
		// make the truncation observable on the server side too.
		s.eng.Logger.Warn("snapshot: short write to client", "stream", name,
			"written", n, "size", len(snap), "err", err)
	}
}

// StrongETag formats a sketch validator (engine.SketchTag) as a strong HTTP
// entity tag.
func StrongETag(tag string) string { return `"` + tag + `"` }

// NotModified sets the response's ETag and, when the request's If-None-Match
// lists it (or is "*"), answers 304 Not Modified with no body and reports
// true. Comparison is the weak one RFC 9110 prescribes for If-None-Match (a
// W/ prefix on either side is ignored); a header that is absent, malformed or
// names other tags reports false and the caller sends the full 200.
func NotModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	opaque := strings.TrimPrefix(etag, "W/")
	for _, cand := range strings.Split(r.Header.Get("If-None-Match"), ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || strings.TrimPrefix(cand, "W/") == opaque {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

func (s *server) handleRestore(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, codeInvalidParam, err)
		return
	}
	stats, err := s.eng.Restore(r.PathValue("name"), data)
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.eng.Delete(name); err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"streams": s.eng.List()})
}

type mergeRequest struct {
	Sketches []string `json:"sketches"`
}

type mergeResponse struct {
	Sketch   string          `json:"sketch"`
	Observed int64           `json:"observed"`
	Centers  kcenter.Dataset `json:"centers"`
}

func (s *server) handleMerge(w http.ResponseWriter, r *http.Request) {
	var req mergeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	blobs := make([][]byte, len(req.Sketches))
	for i, b64 := range req.Sketches {
		blob, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			httpError(w, http.StatusBadRequest, codeBadSketch, fmt.Errorf("sketch %d: invalid base64: %w", i, err))
			return
		}
		blobs[i] = blob
	}
	res, err := s.eng.Merge(blobs)
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, mergeResponse{
		Sketch:   base64.StdEncoding.EncodeToString(res.Sketch),
		Observed: res.Observed,
		Centers:  res.Centers,
	})
}
