package router

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/obs"
	"coresetclustering/internal/server/engine"
	"coresetclustering/internal/server/httpapi"
)

// shardSketch is what the router last pulled from one shard for one stream:
// the snapshot bytes and the ETag that names them, or nothing (nil blob) when
// the shard does not host the stream.
type shardSketch struct {
	blob []byte
	etag string
}

// mergedView is the router's cached global view of one stream: the merged
// sketch of every shard's snapshot, the centers extracted from it, and the
// shard snapshots it was merged from. One refresh is in flight per stream at
// a time (the mutex doubles as a singleflight), and a view is served from
// cache while younger than -merge-interval — the router's consistency window:
// a fresh ingest is visible cluster-wide only after the next refresh. A
// refresh pulls conditionally against the kept snapshots' ETags, so it merges
// again only when some shard's bytes changed; the kept snapshots cost the
// router shards × sketch bytes per stream, freed when the stream is forgotten.
type mergedView struct {
	mu       sync.Mutex
	at       time.Time     // zero until the first successful refresh
	pulled   []shardSketch // by shard index: the inputs of the cached merge
	sketch   []byte
	etag     string // strong ETag of sketch, hashed once per merge
	observed int64
	centers  kcenter.Dataset
	shards   int // shard snapshots merged in
}

// mergedResult is one consistent read of a mergedView.
type mergedResult struct {
	sketch   []byte
	etag     string
	observed int64
	centers  kcenter.Dataset
	shards   int
	age      time.Duration
}

func (v *mergedView) result() mergedResult {
	return mergedResult{v.sketch, v.etag, v.observed, v.centers, v.shards, time.Since(v.at)}
}

// view returns (creating if needed) the cache entry for one stream.
func (s *server) view(name string) *mergedView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[name]
	if !ok {
		v = &mergedView{}
		s.views[name] = v
	}
	return v
}

// getMerged answers a global-view query: from cache while fresh, otherwise
// by revalidating every shard's snapshot and merging when one changed. force
// (?refresh=1 or the background refresher) always revalidates. Only a name
// that refreshed successfully is kept for the background refresher, and a
// name every shard disowns is dropped with its view, so neither table grows
// with junk or deleted names.
func (s *server) getMerged(ctx context.Context, name string, force bool) (mergedResult, error) {
	v := s.view(name)
	v.mu.Lock()
	defer v.mu.Unlock()
	if !force && !v.at.IsZero() && time.Since(v.at) < s.cfg.mergeInterval {
		s.m.MergeCacheHits.Add(1)
		return v.result(), nil
	}
	if err := s.refreshLocked(ctx, name, v); err != nil {
		unknown := engine.CodeOf(err) == engine.CodeUnknownStream
		s.mu.Lock()
		if unknown {
			delete(s.known, name)
		}
		// A view that never merged holds nothing worth keeping either.
		if (unknown || v.at.IsZero()) && s.views[name] == v {
			delete(s.views, name)
		}
		s.mu.Unlock()
		return mergedResult{}, err
	}
	s.remember(name)
	return v.result(), nil
}

// refreshLocked brings one stream's global view up to date. The caller holds
// v.mu. Every shard is asked for its snapshot, conditionally on the ETag of
// the one the view was merged from; when every shard answers 304 (or still
// does not host the stream) the cached merge is current and only its
// timestamp moves, otherwise the changed snapshots are merged with the kept
// ones in shard order — the same bytes an unconditional pull of every shard
// would merge. Every shard must answer (a shard that does not know the stream
// is fine; an unreachable one fails the refresh, kept snapshot or not):
// serving a merge that silently dropped a shard, or that predates what the
// shard holds now, would report a radius over data the view does not cover.
func (s *server) refreshLocked(ctx context.Context, name string, v *mergedView) error {
	pulled, changed, err := s.pullShards(ctx, name, v.pulled)
	if err != nil {
		s.m.MergeFailures.Add(1)
		return &engine.Error{Code: engine.CodeShardUnavailable, Err: err}
	}
	blobs := make([][]byte, 0, len(pulled))
	for _, p := range pulled {
		if p.blob != nil {
			blobs = append(blobs, p.blob)
		}
	}
	if len(blobs) == 0 {
		return &engine.Error{Code: engine.CodeUnknownStream,
			Err: fmt.Errorf("unknown stream %q on every shard", name)}
	}
	_, span := obs.StartSpan(ctx, "merge")
	span.SetAttr("sketches", strconv.Itoa(len(blobs)))
	if !changed {
		span.SetAttr("cache", "revalidated")
		span.End()
		s.m.MergeCacheHits.Add(1)
		v.at = time.Now()
		return nil
	}
	span.SetAttr("cache", "merged")
	s.m.Merges.Add(1)
	res, err := s.eng.Merge(blobs)
	span.End()
	if err != nil {
		s.m.MergeFailures.Add(1)
		return err
	}
	v.at = time.Now()
	v.pulled = pulled
	v.sketch, v.etag = res.Sketch, httpapi.StrongETag(engine.SketchTag(res.Sketch))
	v.observed, v.centers, v.shards = res.Observed, res.Centers, len(blobs)
	return nil
}

// pullShards asks every shard for the stream's snapshot, each conditionally
// on the ETag of the snapshot held from it (held is nil, or indexed by
// shard). It returns the snapshots now current per shard — fresh bytes on
// 200, the held entry on 304, the zero entry on 404 unknown_stream — and
// whether any differs from held. Any other outcome on any shard is an error.
func (s *server) pullShards(ctx context.Context, name string, held []shardSketch) (pulled []shardSketch, changed bool, err error) {
	if held == nil {
		held = make([]shardSketch, len(s.shards))
	}
	pulled = make([]shardSketch, len(s.shards))
	results := make([]string, len(s.shards))
	errs := make([]error, len(s.shards))
	path := "/streams/" + url.PathEscape(name) + "/snapshot"
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			_, span := obs.StartSpan(ctx, "shard.pull")
			span.SetAttr("shard", sh.addr)
			defer span.End()
			resp, err := s.sendShard(ctx, sh, shardReq{method: http.MethodGet, path: path,
				ifNoneMatch: held[i].etag}, span)
			switch {
			case err != nil:
				errs[i] = fmt.Errorf("shard %s: %w", sh.addr, err)
			case resp.status == http.StatusOK:
				pulled[i], results[i] = shardSketch{blob: resp.body, etag: resp.etag}, "modified"
			case resp.status == http.StatusNotModified && held[i].etag != "":
				pulled[i], results[i] = held[i], "not_modified"
			case resp.status == http.StatusNotFound && shardErrCode(resp.body) == engine.CodeUnknownStream:
				results[i] = "absent"
			default:
				errs[i] = fmt.Errorf("shard %s: status %d: %s",
					sh.addr, resp.status, shardErrText(resp.body))
			}
			if errs[i] != nil {
				span.SetAttr("error", errs[i].Error())
				return
			}
			span.SetAttr("result", results[i])
			s.m.ShardPulls.With(sh.addr, results[i]).Add(1)
		}(i, sh)
	}
	wg.Wait()
	for i := range s.shards {
		if errs[i] != nil {
			return nil, false, errs[i]
		}
		if results[i] == "modified" || (results[i] == "absent" && held[i].blob != nil) {
			changed = true
		}
	}
	return pulled, changed, nil
}

// refreshLoop keeps every known stream's global view fresh: each
// -merge-interval tick revalidates the streams the router has seen, so an
// interactive /centers usually answers from a view at most one interval old.
func (s *server) refreshLoop() {
	t := time.NewTicker(s.cfg.mergeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
		}
		s.refreshKnown()
	}
}

// refreshKnown is one tick of refreshLoop: a forced refresh of every known
// stream, each under its own background trace.
func (s *server) refreshKnown() {
	for _, name := range s.knownStreams() {
		ctx, cancel := context.WithTimeout(context.Background(),
			s.cfg.shardTimeout*time.Duration(s.cfg.retries+1)+time.Second)
		var span *obs.Span
		if s.tracer != nil {
			ctx, span = s.tracer.StartBackground(ctx, "merge.refresh")
			span.SetAttr("stream", name)
		}
		_, err := s.getMerged(ctx, name, true)
		if span != nil {
			if err != nil {
				span.SetAttr("error", err.Error())
			}
			span.End()
		}
		cancel()
		if err != nil {
			s.logger.Debug("background merge refresh failed", "stream", name, "err", err)
		}
	}
}
