package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/server/httpapi"
)

// TestMain doubles as the shard-daemon entry point of the cluster tests:
// with KCENTERD_CHILD=1 the test binary becomes a real shard daemon (the
// exported httpapi.Run, the exact code -role=shard dispatches to), so a
// SIGKILL hits an actual process with real OS buffers and fsyncs.
func TestMain(m *testing.M) {
	if os.Getenv("KCENTERD_CHILD") == "1" {
		if err := httpapi.Run(context.Background(), strings.Fields(os.Getenv("KCENTERD_ARGS")), os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "kcenterd-child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// shardProc is one shard daemon running as a child process.
type shardProc struct {
	addr string
	args string // KCENTERD_ARGS, reused to restart the same shard
	cmd  *exec.Cmd
	log  *bytes.Buffer
}

func freeAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startShard launches a shard daemon child on a fresh port. extraArgs is
// appended to the base flag set (e.g. "-persist-dir <dir> -fsync always").
func startShard(t testing.TB, extraArgs string) *shardProc {
	t.Helper()
	sp := &shardProc{addr: freeAddr(t)}
	sp.args = "-addr " + sp.addr + " -k 4 -budget 64"
	if extraArgs != "" {
		sp.args += " " + extraArgs
	}
	launchShard(t, sp)
	t.Cleanup(func() { stopShard(sp) })
	return sp
}

// launchShard (re)starts the child with the shard's recorded args — the
// restart path of the kill/rejoin test.
func launchShard(t testing.TB, sp *shardProc) {
	t.Helper()
	sp.log = &bytes.Buffer{}
	sp.cmd = exec.Command(os.Args[0])
	sp.cmd.Env = append(os.Environ(), "KCENTERD_CHILD=1", "KCENTERD_ARGS="+sp.args)
	sp.cmd.Stderr = sp.log
	if err := sp.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waitShardHealthy(t, sp)
}

func stopShard(sp *shardProc) {
	if sp.cmd != nil && sp.cmd.Process != nil {
		sp.cmd.Process.Kill()
		sp.cmd.Wait()
		sp.cmd = nil
	}
}

func waitShardHealthy(t testing.TB, sp *shardProc) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + sp.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("shard %s never became healthy\nlog:\n%s", sp.addr, sp.log.String())
}

// newTestRouter assembles an in-process router over the given shards with a
// tiny merge interval so tests observe fresh views without sleeping.
func newTestRouter(t testing.TB, shards []*shardProc) (*httptest.Server, *server) {
	t.Helper()
	addrs := make([]string, len(shards))
	for i, sp := range shards {
		addrs[i] = sp.addr
	}
	srv := newServer(config{
		shards:        addrs,
		mergeInterval: 50 * time.Millisecond,
		shardTimeout:  5 * time.Second,
		retries:       2,
	})
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(func() { ts.Close(); close(srv.closed) })
	return ts, srv
}

// clusteredPoints builds a deterministic dataset of tight Gaussian blobs, so
// any correct k-center run finds a small radius and the (2+eps) bound bites.
func clusteredPoints(n, dim int, seed int64) kcenter.Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]metric.Point, 4)
	for i := range centers {
		c := make(metric.Point, dim)
		for d := range c {
			c[d] = float64(i*100) + rng.Float64()*10
		}
		centers[i] = c
	}
	ds := make(kcenter.Dataset, n)
	for i := range ds {
		c := centers[i%len(centers)]
		p := make(metric.Point, dim)
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()
		}
		ds[i] = p
	}
	return ds
}

func postJSON(t *testing.T, url string, payload any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, body)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, body)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp
}

func errorBody(t *testing.T, resp *http.Response) (code, msg string) {
	t.Helper()
	var er struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	body, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body is not the daemon shape: %v\nbody: %s", err, body)
	}
	return er.Code, er.Error
}

// euclid is the plain L2 distance used to score merged centers.
func euclid(a, b metric.Point) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// coverRadius is the k-center objective of centers over ds.
func coverRadius(ds kcenter.Dataset, centers kcenter.Dataset) float64 {
	var radius float64
	for _, p := range ds {
		best := math.Inf(1)
		for _, c := range centers {
			if d := euclid(p, c); d < best {
				best = d
			}
		}
		if best > radius {
			radius = best
		}
	}
	return radius
}

// TestShardIndexStableAndSpread pins the partition contract: identical
// coordinates always land on the same shard, and a varied dataset does not
// collapse onto one shard.
func TestShardIndexStableAndSpread(t *testing.T) {
	ds := clusteredPoints(600, 3, 7)
	counts := make([]int, 3)
	for _, p := range ds {
		idx := shardIndex(p, 3)
		if again := shardIndex(append(metric.Point{}, p...), 3); again != idx {
			t.Fatalf("same coordinates routed to shard %d then %d", idx, again)
		}
		counts[idx]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no points: %v", i, counts)
		}
	}
}

// TestClusterMergedRadius is the acceptance test of the router's composed
// view: points ingested through the router (mixed JSON and binary batches)
// spread over three real shard daemons, and the centers extracted from the
// merged global sketch must cover the full dataset within the composable-
// coreset bound (2+eps) of the sequential Gonzalez radius.
func TestClusterMergedRadius(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	shards := []*shardProc{startShard(t, ""), startShard(t, ""), startShard(t, "")}
	ts, _ := newTestRouter(t, shards)

	const k, dim, n = 4, 3, 600
	ds := clusteredPoints(n, dim, 42)

	// Alternate encodings batch by batch: protocol choice must not affect
	// routing or the merged result.
	const batchSize = 100
	for off := 0; off < n; off += batchSize {
		chunk := ds[off : off+batchSize]
		var ack ingestAck
		if off/batchSize%2 == 0 {
			resp := postJSON(t, ts.URL+"/streams/s/points?k=4&budget=64",
				map[string]any{"points": chunk}, &ack)
			if resp.StatusCode != http.StatusOK {
				code, msg := errorBody(t, resp)
				t.Fatalf("JSON ingest: status %d code %q: %s", resp.StatusCode, code, msg)
			}
		} else {
			f, err := metric.NewFlat(dim, len(chunk))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range chunk {
				if err := f.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			body := httpapi.EncodeBinaryIngest(nil, f, nil)
			resp, err := http.Post(ts.URL+"/streams/s/points?k=4&budget=64",
				httpapi.BinaryContentType, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("binary ingest: status %d body %s", resp.StatusCode, b)
			}
			if err := json.Unmarshal(b, &ack); err != nil {
				t.Fatal(err)
			}
		}
		if ack.Points != batchSize {
			t.Fatalf("ack points %d, want %d", ack.Points, batchSize)
		}
	}

	// The merged view must account for every point exactly once.
	var centers centersResponse
	resp := getJSON(t, ts.URL+"/streams/s/centers?refresh=1", &centers)
	if resp.StatusCode != http.StatusOK {
		code, msg := errorBody(t, resp)
		t.Fatalf("centers: status %d code %q: %s", resp.StatusCode, code, msg)
	}
	if centers.Observed != n {
		t.Fatalf("merged observed %d, want %d", centers.Observed, n)
	}
	if centers.Shards != len(shards) {
		t.Fatalf("merged %d shard snapshots, want %d", centers.Shards, len(shards))
	}
	if len(centers.Centers) == 0 || len(centers.Centers) > k {
		t.Fatalf("merged view returned %d centers, want 1..%d", len(centers.Centers), k)
	}

	// Quality: within (2+eps) of the sequential baseline on the same input.
	seq, err := kcenter.Gonzalez(ds, k, kcenter.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	merged := coverRadius(ds, centers.Centers)
	bound := (2 + 1.0) * seq.Radius
	if merged > bound {
		t.Fatalf("merged radius %.4f exceeds (2+eps) bound %.4f (sequential %.4f)",
			merged, bound, seq.Radius)
	}

	// The router snapshot is itself a restorable sketch: restoring it on a
	// shard daemon materialises the cluster-wide state.
	snapResp, err := http.Post(ts.URL+"/streams/s/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(snapResp.Body)
	snapResp.Body.Close()
	if snapResp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("router snapshot: status %d, %d bytes", snapResp.StatusCode, len(blob))
	}
	restoreResp, err := http.Post("http://"+shards[0].addr+"/streams/global/restore",
		"application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(restoreResp.Body)
	restoreResp.Body.Close()
	if restoreResp.StatusCode != http.StatusOK {
		t.Fatalf("restoring the merged snapshot on a shard: status %d body %s", restoreResp.StatusCode, rb)
	}

	// The router's own series: the ingest counter accounts for exactly the
	// points sent over both protocols, and every kcenterd_router_* family is
	// exported (the retry and send-failure counters only once a shard
	// request has failed).
	_, body := fetch(t, http.MethodGet, ts.URL+"/metrics", "")
	metrics := string(body)
	if want := fmt.Sprintf("\nkcenterd_router_ingest_points_total %d\n", n); !strings.Contains(metrics, want) {
		t.Errorf("router scrape lacks %q", strings.TrimSpace(want))
	}
	for _, family := range []string{
		"http_requests_total", "http_request_duration_seconds", "http_in_flight_requests",
		"http_slow_requests_total", "ingest_batches_total", "ingest_points_total",
		"shard_sends_total", "shard_send_duration_seconds", "shard_pulls_total",
		"merges_total", "merge_failures_total", "merge_cache_hits_total",
		"uptime_seconds", "shards", "streams_known", "shard_healthy",
	} {
		if !strings.Contains(metrics, "\n# TYPE kcenterd_router_"+family+" ") {
			t.Errorf("router scrape lacks the kcenterd_router_%s family", family)
		}
	}
}

// TestClusterShardKillRejoin kills one durable shard with SIGKILL mid-run:
// the router's health must degrade while the shard is down, the restarted
// shard must recover its acknowledged state from its WAL, and the merged
// view must again account for every acknowledged point.
func TestClusterShardKillRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	shards := make([]*shardProc, 3)
	for i := range shards {
		shards[i] = startShard(t, "-persist-dir "+dirs[i]+" -fsync always")
	}
	ts, srv := newTestRouter(t, shards)

	const n, dim = 300, 3
	ds := clusteredPoints(n, dim, 99)
	var acked int64
	for off := 0; off < n; off += 50 {
		var ack ingestAck
		resp := postJSON(t, ts.URL+"/streams/s/points?k=4&budget=64",
			map[string]any{"points": ds[off : off+50]}, &ack)
		if resp.StatusCode != http.StatusOK {
			code, msg := errorBody(t, resp)
			t.Fatalf("ingest: status %d code %q: %s", resp.StatusCode, code, msg)
		}
		acked += 50
	}

	// SIGKILL one shard. No shutdown path runs: anything not in its WAL is
	// gone, and everything acknowledged must not be.
	victim := shards[1]
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.cmd.Wait()
	victim.cmd = nil

	// The router notices: /healthz degrades to 503 naming the dead shard.
	srv.probeOnce()
	resp := getJSON(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a dead shard: status %d, want 503", resp.StatusCode)
	}

	// A global view cannot be composed while a shard is missing.
	resp = getJSON(t, ts.URL+"/streams/s/centers?refresh=1", nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("centers with a dead shard: status %d, want 502", resp.StatusCode)
	}
	code, _ := errorBody(t, resp)
	if code != "shard_unavailable" {
		t.Fatalf("centers with a dead shard: code %q, want shard_unavailable", code)
	}

	// Restart the shard over the same directory: WAL catch-up.
	launchShard(t, victim)
	srv.probeOnce()
	resp = getJSON(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("healthz after rejoin: status %d body %s", resp.StatusCode, body)
	}

	// The rejoined shard contributes its recovered state to the merge.
	var centers centersResponse
	resp = getJSON(t, ts.URL+"/streams/s/centers?refresh=1", &centers)
	if resp.StatusCode != http.StatusOK {
		code, msg := errorBody(t, resp)
		t.Fatalf("centers after rejoin: status %d code %q: %s", resp.StatusCode, code, msg)
	}
	if centers.Observed != acked {
		t.Fatalf("merged observed %d after rejoin, want %d (acknowledged)", centers.Observed, acked)
	}
	if centers.Shards != 3 {
		t.Fatalf("merged %d snapshots after rejoin, want 3", centers.Shards)
	}
}

// TestRouterWindowMergeIncompatible pins the typed merge error end to end:
// window sketches refuse to merge with kcenter.ErrMergeIncompatible, and the
// router surfaces that as 502 shard_incompatible — a cluster state problem,
// distinct from 400 bad_sketch (malformed bytes).
func TestRouterWindowMergeIncompatible(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	shards := []*shardProc{startShard(t, ""), startShard(t, "")}
	ts, _ := newTestRouter(t, shards)

	ds := clusteredPoints(200, 2, 5)
	var ack ingestAck
	resp := postJSON(t, ts.URL+"/streams/w/points?window=50", map[string]any{"points": ds}, &ack)
	if resp.StatusCode != http.StatusOK {
		code, msg := errorBody(t, resp)
		t.Fatalf("window ingest: status %d code %q: %s", resp.StatusCode, code, msg)
	}
	if ack.Shards < 2 {
		t.Fatalf("window batch reached %d shards, want 2 (cannot exercise the merge)", ack.Shards)
	}

	resp = getJSON(t, ts.URL+"/streams/w/centers?refresh=1", nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("merging window sketches: status %d, want 502", resp.StatusCode)
	}
	if code, _ := errorBody(t, resp); code != "shard_incompatible" {
		t.Fatalf("merging window sketches: code %q, want shard_incompatible", code)
	}
}

// TestRouterValidationAndPassthrough covers the router's own front-door
// validation (bad batches are rejected before any fan-out) and the relay of
// shard-side outcomes (unknown streams are 404 cluster-wide).
func TestRouterValidationAndPassthrough(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	shards := []*shardProc{startShard(t, ""), startShard(t, "")}
	ts, _ := newTestRouter(t, shards)

	// NaN coordinates die at the router: no shard sees the batch.
	resp := postJSON(t, ts.URL+"/streams/v/points",
		map[string]any{"points": []any{[]any{1.0, "NaN"}}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("NaN batch: status %d, want 400", resp.StatusCode)
	}

	// Unknown stream: 404 with the daemon's code, from every read endpoint.
	for _, path := range []string{"/streams/nope/centers", "/streams/nope/stats"} {
		resp := getJSON(t, ts.URL+path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
		if code, _ := errorBody(t, resp); code != "unknown_stream" {
			t.Fatalf("%s: code %q, want unknown_stream", path, code)
		}
	}

	// A stats read after ingest aggregates across shards.
	ds := clusteredPoints(120, 2, 11)
	postJSON(t, ts.URL+"/streams/v/points", map[string]any{"points": ds}, nil)
	var stats statsResponse
	resp = getJSON(t, ts.URL+"/streams/v/stats", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if stats.Observed != int64(len(ds)) {
		t.Fatalf("aggregated observed %d, want %d", stats.Observed, len(ds))
	}

	// The listing unions shard listings.
	var list struct {
		Streams []string `json:"streams"`
	}
	resp = getJSON(t, ts.URL+"/streams", &list)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	found := false
	for _, name := range list.Streams {
		if name == "v" {
			found = true
		}
	}
	if !found {
		t.Fatalf("stream v missing from cluster listing %v", list.Streams)
	}
}

// fetch performs one request with an optional If-None-Match and returns the
// response with its body already read.
func fetch(t *testing.T, method, url, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// sample reads one series of the router's metrics exposition; a series not
// exposed yet reads 0.
func sample(srv *server, series string) int64 {
	var b strings.Builder
	_ = srv.m.Reg.WritePrometheus(&b) // a strings.Builder does not fail
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

// pullCounts reads kcenterd_router_shard_pulls_total for one shard.
type pullCounts struct{ modified, notModified, absent int64 }

func pullsOf(srv *server, sp *shardProc) pullCounts {
	return pullCounts{
		modified:    sample(srv, fmt.Sprintf("kcenterd_router_shard_pulls_total{shard=%q,result=\"modified\"}", sp.addr)),
		notModified: sample(srv, fmt.Sprintf("kcenterd_router_shard_pulls_total{shard=%q,result=\"not_modified\"}", sp.addr)),
		absent:      sample(srv, fmt.Sprintf("kcenterd_router_shard_pulls_total{shard=%q,result=\"absent\"}", sp.addr)),
	}
}

// TestClusterConditionalRefresh walks the router's version-aware read path
// against real durable shard processes: an idle stream is merged once however
// often it is refreshed; when one shard moves, only that shard's bytes travel
// and the merge equals an unconditional pull-and-merge of every shard; a dead
// shard fails the refresh even though the router holds its last snapshot; and
// a shard that comes back byte-identical from its WAL is recognised by its
// ETag and costs no merge.
func TestClusterConditionalRefresh(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	shards := []*shardProc{
		startShard(t, "-persist-dir "+t.TempDir()+" -fsync always"),
		startShard(t, "-persist-dir "+t.TempDir()+" -fsync always"),
	}
	ts, srv := newTestRouter(t, shards)
	ds := clusteredPoints(400, 3, 21)
	var ack ingestAck
	if resp := postJSON(t, ts.URL+"/streams/s/points?k=4&budget=64", map[string]any{"points": ds[:300]}, &ack); resp.StatusCode != http.StatusOK || ack.Shards != 2 {
		t.Fatalf("ingest: status %d over %d shards", resp.StatusCode, ack.Shards)
	}
	centersURL := ts.URL + "/streams/s/centers?refresh=1"
	snapshotURL := ts.URL + "/streams/s/snapshot"

	// unconditional is the merge the parent design ran on every refresh: pull
	// every shard's full snapshot, merge in shard order.
	unconditional := func() []byte {
		t.Helper()
		blobs := make([][]byte, len(shards))
		for i, sp := range shards {
			resp, body := fetch(t, http.MethodPost, "http://"+sp.addr+"/streams/s/snapshot", "")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("shard %d snapshot: status %d", i, resp.StatusCode)
			}
			blobs[i] = body
		}
		merged, err := kcenter.MergeSketches(blobs...)
		if err != nil {
			t.Fatal(err)
		}
		return merged
	}

	// Idle stream: N forced refreshes, one merge.
	var first centersResponse
	if resp := getJSON(t, centersURL, &first); resp.StatusCode != http.StatusOK || first.Observed != 300 {
		t.Fatalf("first refresh: status %d observed %d", resp.StatusCode, first.Observed)
	}
	const idleRefreshes = 5
	hits := sample(srv, "kcenterd_router_merge_cache_hits_total")
	for i := 0; i < idleRefreshes; i++ {
		var again centersResponse
		getJSON(t, centersURL, &again)
		if fmt.Sprint(again.Centers) != fmt.Sprint(first.Centers) || again.Observed != 300 || again.MergedAgeMs != 0 {
			t.Fatalf("revalidated refresh %d: observed %d age %dms centers %v, want the first answer at age 0",
				i, again.Observed, again.MergedAgeMs, again.Centers)
		}
	}
	if got := sample(srv, "kcenterd_router_merges_total"); got != 1 {
		t.Fatalf("%d merges after %d refreshes of an idle stream, want 1", got, 1+idleRefreshes)
	}
	if got := sample(srv, "kcenterd_router_merge_cache_hits_total") - hits; got != idleRefreshes {
		t.Fatalf("%d cache hits for %d revalidated refreshes", got, idleRefreshes)
	}
	for i, sp := range shards {
		if got, want := pullsOf(srv, sp), (pullCounts{modified: 1, notModified: idleRefreshes}); got != want {
			t.Fatalf("shard %d pulls %+v, want %+v", i, got, want)
		}
	}
	_, idleSketch := fetch(t, http.MethodGet, snapshotURL, "")
	if !bytes.Equal(idleSketch, unconditional()) {
		t.Fatal("cached merged sketch differs from an unconditional pull-and-merge")
	}

	// One shard ingests (directly, so the other provably does not move): the
	// next refresh transfers that shard alone and merges it with the kept
	// snapshot of the other.
	if resp := postJSON(t, "http://"+shards[0].addr+"/streams/s/points", map[string]any{"points": ds[300:]}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("direct ingest: status %d", resp.StatusCode)
	}
	var moved centersResponse
	getJSON(t, centersURL, &moved)
	if moved.Observed != 400 || moved.Shards != 2 {
		t.Fatalf("after one shard moved: observed %d from %d shards, want 400 from 2", moved.Observed, moved.Shards)
	}
	if got := sample(srv, "kcenterd_router_merges_total"); got != 2 {
		t.Fatalf("%d merges after one shard moved, want 2", got)
	}
	if got, want := pullsOf(srv, shards[0]), (pullCounts{modified: 2, notModified: idleRefreshes}); got != want {
		t.Fatalf("moved shard pulls %+v, want %+v", got, want)
	}
	if got, want := pullsOf(srv, shards[1]), (pullCounts{modified: 1, notModified: idleRefreshes + 1}); got != want {
		t.Fatalf("idle shard pulls %+v, want %+v", got, want)
	}
	snapResp, movedSketch := fetch(t, http.MethodGet, snapshotURL, "")
	if !bytes.Equal(movedSketch, unconditional()) {
		t.Fatal("merge of one fresh and one kept snapshot differs from an unconditional pull-and-merge")
	}

	// The router's own reads are conditional too: the merged sketch's ETag,
	// strong on /snapshot and weak on /centers, answers 304 while it holds.
	etag := snapResp.Header.Get("ETag")
	if etag == "" || strings.HasPrefix(etag, "W/") {
		t.Fatalf("router snapshot ETag %q, want a strong tag", etag)
	}
	for _, u := range []string{snapshotURL, centersURL} {
		resp, body := fetch(t, http.MethodGet, u, etag)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("%s with the current tag: status %d, %d body bytes, want an empty 304", u, resp.StatusCode, len(body))
		}
	}
	if resp, _ := fetch(t, http.MethodGet, centersURL, ""); resp.Header.Get("ETag") != "W/"+etag {
		t.Fatalf("router centers ETag %q, want W/%s", resp.Header.Get("ETag"), etag)
	}

	// SIGKILL the idle shard. The router still holds its last snapshot and
	// must not answer from it.
	victim := shards[1]
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.cmd.Wait()
	victim.cmd = nil
	resp := getJSON(t, centersURL, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("refresh with a dead shard and a warm cache: status %d, want 502", resp.StatusCode)
	}
	if code, _ := errorBody(t, resp); code != "shard_unavailable" {
		t.Fatalf("refresh with a dead shard: code %q, want shard_unavailable", code)
	}

	// WAL rejoin: the recovered state is byte-identical, so its ETag is the
	// one the router holds — the first refresh is correct and merge-free.
	launchShard(t, victim)
	merges, before := sample(srv, "kcenterd_router_merges_total"), pullsOf(srv, victim)
	var rejoined centersResponse
	if resp := getJSON(t, centersURL, &rejoined); resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh after rejoin: status %d", resp.StatusCode)
	}
	if rejoined.Observed != 400 || rejoined.Shards != 2 {
		t.Fatalf("after rejoin: observed %d from %d shards, want 400 from 2", rejoined.Observed, rejoined.Shards)
	}
	if _, sketch := fetch(t, http.MethodGet, snapshotURL, ""); !bytes.Equal(sketch, unconditional()) {
		t.Fatal("merged sketch after rejoin differs from an unconditional pull-and-merge")
	}
	after := pullsOf(srv, victim)
	if after.notModified != before.notModified+1 || after.modified != before.modified || sample(srv, "kcenterd_router_merges_total") != merges {
		t.Fatalf("byte-identical rejoin cost a transfer or a merge: pulls %+v -> %+v, merges %d -> %d",
			before, after, merges, sample(srv, "kcenterd_router_merges_total"))
	}

	// The refresher's trace names the same decisions: what each shard
	// answered, and whether the merge span merged or only revalidated.
	refresherTrace := func() string {
		t.Helper()
		srv.refreshKnown()
		root := srv.tracer.Recent()[0].Detail().Root
		results := make(map[string]string)
		cache := ""
		for _, sp := range root.Children {
			switch sp.Name {
			case "shard.pull":
				results[sp.Attrs["shard"]] = sp.Attrs["result"]
			case "merge":
				cache = sp.Attrs["cache"]
			}
		}
		return results[shards[0].addr] + " " + results[shards[1].addr] + " cache=" + cache
	}
	if got, want := refresherTrace(), "not_modified not_modified cache=revalidated"; got != want {
		t.Fatalf("idle refresher trace: %q, want %q", got, want)
	}
	postJSON(t, "http://"+shards[0].addr+"/streams/s/points", map[string]any{"points": ds[:10]}, nil)
	if got, want := refresherTrace(), "modified not_modified cache=merged"; got != want {
		t.Fatalf("refresher trace after shard 0 moved: %q, want %q", got, want)
	}
}

// TestRouterForgetsUnknownStreams bounds the router's per-stream tables by
// the streams that exist: names nobody hosts (a thousand junk reads, a batch
// every shard rejects) never enter them, and a stream deleted on the shards
// leaves them — blob cache included — on the refresher's next pass, after
// which the refresher pulls live streams only.
func TestRouterForgetsUnknownStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	shards := []*shardProc{startShard(t, ""), startShard(t, "")}
	ts, srv := newTestRouter(t, shards)
	tables := func() (known, views int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.known), len(srv.views)
	}

	ds := clusteredPoints(200, 2, 3)
	postJSON(t, ts.URL+"/streams/live/points", map[string]any{"points": ds}, nil)
	if resp := getJSON(t, ts.URL+"/streams/live/centers?refresh=1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("live centers: status %d", resp.StatusCode)
	}
	known, views := tables()
	if known != 1 || views != 1 {
		t.Fatalf("one live stream: %d known, %d views", known, views)
	}

	for i := 0; i < 1000; i++ {
		if resp := getJSON(t, fmt.Sprintf("%s/streams/junk-%d/centers", ts.URL, i), nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("junk read %d: status %d, want 404", i, resp.StatusCode)
		}
	}
	if resp := postJSON(t, ts.URL+"/streams/rejected/points?k=abc", map[string]any{"points": ds}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with a bad creation parameter: status %d, want 400", resp.StatusCode)
	}
	if k, v := tables(); k != known || v != views {
		t.Fatalf("after 1000 junk reads and a rejected batch: %d known, %d views, want %d and %d", k, v, known, views)
	}

	postJSON(t, ts.URL+"/streams/doomed/points", map[string]any{"points": ds}, nil)
	getJSON(t, ts.URL+"/streams/doomed/centers?refresh=1", nil)
	if k, v := tables(); k != known+1 || v != views+1 {
		t.Fatalf("with a second live stream: %d known, %d views", k, v)
	}
	for _, sp := range shards {
		if resp, _ := fetch(t, http.MethodDelete, "http://"+sp.addr+"/streams/doomed", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("deleting doomed on %s: status %d", sp.addr, resp.StatusCode)
		}
	}
	srv.refreshKnown()
	if k, v := tables(); k != known || v != views {
		t.Fatalf("after the deleted stream's refresh: %d known, %d views, want %d and %d", k, v, known, views)
	}

	sends := make([]int64, len(shards))
	for i, sp := range shards {
		sends[i] = sample(srv, fmt.Sprintf("kcenterd_router_shard_sends_total{shard=%q}", sp.addr))
	}
	srv.refreshKnown()
	for i, sp := range shards {
		if got := sample(srv, fmt.Sprintf("kcenterd_router_shard_sends_total{shard=%q}", sp.addr)) - sends[i]; got != 1 {
			t.Fatalf("a refresher pass sent %d requests to shard %d, want 1 (the live stream)", got, i)
		}
	}
}
