package httpapi

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	kcenter "coresetclustering"
	"coresetclustering/internal/server/engine"
)

// handleIngest serves both ingest routes (/points and its alias /ingest):
// the shared decode front end negotiates JSON or KCFL by Content-Type, and
// both encodings feed the same engine ingest core, so validation, journaling,
// atomicity, group commit and the response shape are identical.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	batch, ts, binaryBytes, ok := DecodeIngest(w, r)
	if !ok {
		return
	}
	stats, err := s.eng.Ingest(r.Context(), r.PathValue("name"), batch, ts, binaryBytes, s.createParams(r))
	if err != nil {
		EngineError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, stats)
}

// advanceRequest moves a window stream's clock forward without observing a
// point, evicting buckets that age out of a duration window.
type advanceRequest struct {
	To int64 `json:"to"`
}

func (s *server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req advanceRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	stats, err := s.eng.Advance(r.Context(), r.PathValue("name"), req.To)
	if err != nil {
		EngineError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, stats)
}

// handleStats is the introspection endpoint: per-stream counters, working
// memory, space name and (for window streams) the live window state. Answered
// entirely from the published view and lock-free counters — it never takes
// the stream's ingest mutex.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := s.eng.Stats(r.PathValue("name"))
	if err != nil {
		EngineError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, stats)
}

type centersResponse struct {
	engine.StreamStats
	Centers kcenter.Dataset `json:"centers"`
}

// handleCenters extracts the current k centers from the newest published
// view, never taking the stream's ingest mutex: the answer is a consistent
// snapshot as of the view's version, and a repeated query at an unchanged
// version is a cache hit (the view memoises its extraction).
func (s *server) handleCenters(w http.ResponseWriter, r *http.Request) {
	stats, centers, err := s.eng.Centers(r.Context(), r.PathValue("name"))
	if err != nil {
		EngineError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, centersResponse{StreamStats: stats, Centers: centers})
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
		EngineError(w, err)
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
	var body bytes.Buffer
	if !readBody(w, r, &body, engine.CodeInvalidParam) {
		return
	}
	stats, err := s.eng.Restore(r.PathValue("name"), body.Bytes())
	if err != nil {
		EngineError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, stats)
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.eng.Delete(name); err != nil {
		EngineError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"streams": s.eng.List()})
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
	if !DecodeJSON(w, r, &req) {
		return
	}
	blobs := make([][]byte, len(req.Sketches))
	for i, b64 := range req.Sketches {
		blob, err := base64.StdEncoding.DecodeString(b64)
		if err != nil {
			Error(w, http.StatusBadRequest, engine.CodeBadSketch, fmt.Errorf("sketch %d: invalid base64: %w", i, err))
			return
		}
		blobs[i] = blob
	}
	res, err := s.eng.Merge(blobs)
	if err != nil {
		EngineError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, mergeResponse{
		Sketch:   base64.StdEncoding.EncodeToString(res.Sketch),
		Observed: res.Observed,
		Centers:  res.Centers,
	})
}
