package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	kcenter "coresetclustering"
	"coresetclustering/internal/obs"
	"coresetclustering/internal/server/engine"
	"coresetclustering/internal/server/httpapi"
)

// centersResponse is the router's global-centers payload: the merged view's
// centers plus enough provenance (shards merged, view age) for a client to
// reason about staleness.
type centersResponse struct {
	Stream      string          `json:"stream"`
	Observed    int64           `json:"observed"`
	Shards      int             `json:"shards"`
	MergedAgeMs int64           `json:"mergedAgeMs"`
	Centers     kcenter.Dataset `json:"centers"`
}

// handleCenters serves cluster-wide centers from the cached merged view;
// ?refresh=1 forces a revalidation against every shard before answering. The
// ETag is the merged sketch's, weak because mergedAgeMs moves between
// identical views: a poller sending it back as If-None-Match gets a bodiless
// 304 while the centers it holds are still the cluster's.
func (s *server) handleCenters(w http.ResponseWriter, r *http.Request) {
	force := r.URL.Query().Get("refresh") == "1"
	res, err := s.getMerged(r.Context(), r.PathValue("name"), force)
	if err != nil {
		httpapi.EngineError(w, err)
		return
	}
	if httpapi.NotModified(w, r, "W/"+res.etag) {
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, centersResponse{
		Stream:      r.PathValue("name"),
		Observed:    res.observed,
		Shards:      res.shards,
		MergedAgeMs: res.age.Milliseconds(),
		Centers:     res.centers,
	})
}

// handleSnapshot serves the merged global sketch itself — a valid restore
// body for any shard daemon, so an operator can materialise the cluster-wide
// state as a single stream — under the same strong-ETag / If-None-Match
// contract as a shard's snapshot route.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	force := r.URL.Query().Get("refresh") == "1"
	res, err := s.getMerged(r.Context(), r.PathValue("name"), force)
	if err != nil {
		httpapi.EngineError(w, err)
		return
	}
	if httpapi.NotModified(w, r, res.etag) {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(res.sketch)))
	w.WriteHeader(http.StatusOK)
	w.Write(res.sketch)
}

// shardStreamStat is one shard's slice of a stream's cluster-wide stats.
type shardStreamStat struct {
	Shard  string          `json:"shard"`
	Health string          `json:"health"`
	Error  string          `json:"error,omitempty"`
	Stats  json.RawMessage `json:"stats,omitempty"`
}

// statsResponse aggregates one stream's stats across the cluster: the
// summed observed count plus each shard's full stats payload verbatim.
type statsResponse struct {
	Stream   string            `json:"stream"`
	Observed int64             `json:"observed"`
	Shards   []shardStreamStat `json:"shards"`
}

// handleStats fans GET /stats out to every shard and aggregates. A shard
// that does not know the stream contributes nothing; only when every shard
// is ignorant is the stream unknown.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	path := "/streams/" + url.PathEscape(name) + "/stats"
	resps, errs := s.broadcast(r, shardReq{method: http.MethodGet, path: path})

	out := statsResponse{Stream: name, Shards: make([]shardStreamStat, len(s.shards))}
	present := 0
	for i, sh := range s.shards {
		st := shardStreamStat{Shard: sh.addr, Health: sh.getState()}
		switch {
		case errs[i] != nil:
			st.Error = errs[i].Error()
		case resps[i].status == http.StatusOK:
			var stats engine.StreamStats
			if err := json.Unmarshal(resps[i].body, &stats); err == nil {
				out.Observed += stats.Observed
			}
			st.Stats = json.RawMessage(resps[i].body)
			present++
		default:
			st.Error = fmt.Sprintf("status %d: %s", resps[i].status, shardErrText(resps[i].body))
		}
		out.Shards[i] = st
	}
	if present == 0 {
		if allUnknown(resps, errs) {
			httpapi.Error(w, http.StatusNotFound, engine.CodeUnknownStream,
				fmt.Errorf("unknown stream %q on every shard", name))
			return
		}
		httpapi.Error(w, http.StatusBadGateway, engine.CodeShardUnavailable,
			fmt.Errorf("no shard could answer stats for %q", name))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// handleAdvance broadcasts a clock advance to every shard hosting the
// stream: with hash partitioning any shard may hold live buckets, so the
// window moves everywhere or the request fails.
func (s *server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		To int64 `json:"to"`
	}
	if !httpapi.DecodeJSON(w, r, &req) {
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		httpapi.Error(w, http.StatusInternalServerError, engine.CodeInternal, err)
		return
	}
	name := r.PathValue("name")
	path := "/streams/" + url.PathEscape(name) + "/advance"
	resps, errs := s.broadcast(r, shardReq{method: http.MethodPost, path: path,
		contentType: "application/json", body: body})

	var observed int64
	advanced := 0
	for i := range s.shards {
		switch {
		case errs[i] != nil:
			httpapi.EngineError(w, &engine.Error{Code: engine.CodeShardUnavailable,
				Err: fmt.Errorf("shard %s: %w", s.shards[i].addr, errs[i])})
			return
		case resps[i].status == http.StatusOK:
			var stats engine.StreamStats
			if json.Unmarshal(resps[i].body, &stats) == nil {
				observed += stats.Observed
			}
			advanced++
		case resps[i].status == http.StatusNotFound && shardErrCode(resps[i].body) == engine.CodeUnknownStream:
			// This shard has not seen the stream yet; nothing to advance.
		default:
			relayShardError(w, resps[i])
			return
		}
	}
	if advanced == 0 {
		httpapi.Error(w, http.StatusNotFound, engine.CodeUnknownStream,
			fmt.Errorf("unknown stream %q on every shard", name))
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"stream": name, "to": req.To, "shards": advanced, "observed": observed,
	})
}

// handleList unions the shard stream listings into one sorted name list.
func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	resps, errs := s.broadcast(r, shardReq{method: http.MethodGet, path: "/streams"})
	names := make(map[string]struct{})
	answered := 0
	for i := range s.shards {
		if errs[i] != nil || resps[i].status != http.StatusOK {
			continue
		}
		var list struct {
			Streams []struct {
				Name string `json:"name"`
			} `json:"streams"`
		}
		if json.Unmarshal(resps[i].body, &list) != nil {
			continue
		}
		answered++
		for _, st := range list.Streams {
			names[st.Name] = struct{}{}
			s.remember(st.Name)
		}
	}
	if answered == 0 {
		httpapi.Error(w, http.StatusBadGateway, engine.CodeShardUnavailable,
			fmt.Errorf("no shard answered the stream listing"))
		return
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"streams": sorted, "shardsAnswered": answered,
	})
}

// broadcast sends the same request to every shard concurrently and collects
// each answer (or error) by shard index.
func (s *server) broadcast(r *http.Request, rq shardReq) ([]shardResp, []error) {
	resps := make([]shardResp, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			_, span := obs.StartSpan(r.Context(), "shard.send")
			span.SetAttr("shard", sh.addr)
			resps[i], errs[i] = s.sendShard(r.Context(), sh, rq, span)
			if errs[i] != nil {
				span.SetAttr("error", errs[i].Error())
			} else {
				span.SetAttr("status", strconv.Itoa(resps[i].status))
			}
			span.End()
		}(i, sh)
	}
	wg.Wait()
	return resps, errs
}

// allUnknown reports whether every shard that answered said unknown_stream.
func allUnknown(resps []shardResp, errs []error) bool {
	for i := range resps {
		if errs[i] != nil {
			return false
		}
		if resps[i].status != http.StatusNotFound || shardErrCode(resps[i].body) != engine.CodeUnknownStream {
			return false
		}
	}
	return true
}
