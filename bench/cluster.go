package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"coresetclustering/bench/gen"
)

// cluster: a router in front of two durable shards. An open-loop writer sends
// binary batches to stream hot through the router, at about half the rate a
// closed loop sustains here, while an open-loop reader asks the router for
// freshly merged centres (?refresh=1), round-robin over hot and three
// preloaded streams nobody writes to. Router, two shards and the harness share
// two cores: a closed-loop writer saturates them, and then every figure of
// the workload follows whatever else the host is doing (throughput and median
// latencies moved 15-25 % between quiet and busy minutes, p95s by half).
const (
	clusterShards    = 2
	clusterBudget    = 320
	clusterWriteRate = 200 // batches per second
	clusterWarm      = 150
	clusterIdle      = 3      // preloaded, idle streams
	clusterPreload   = 40_000 // points per idle stream
	clusterReadRate  = 50
)

func init() {
	register(&workload{
		name:   "cluster",
		shape:  shape{k: daemonK, budget: clusterBudget, batch: writeBatch, drift: driftSmallBudget, ell: 16, mu: 4},
		stream: "hot",
		run:    runCluster,
	})
}

// clusterProcs is a booted router with its shards.
type clusterProcs struct {
	router *daemon
	shards []*daemon
}

func (c *clusterProcs) kill() {
	c.router.kill()
	for _, s := range c.shards {
		s.kill()
	}
}

// startCluster boots the shards, then a router over them with
// -merge-interval at its default.
func startCluster(e *env, bin, scratch string, debug bool, budget int) (*clusterProcs, error) {
	c := &clusterProcs{}
	var addrs []string
	for i := 0; i < clusterShards; i++ {
		s, err := e.procs.start(bin, scratch, debug, shardArgs(filepath.Join(scratch, fmt.Sprintf("shard%d", i)), budget)...)
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, s)
		addrs = append(addrs, s.addr)
	}
	r, err := e.procs.start(bin, scratch, debug, "-role=router", "-shards", strings.Join(addrs, ","), "-log-level", "warn")
	if err != nil {
		return nil, err
	}
	c.router = r
	return c, nil
}

// shardObserved sums a stream's observed count over the shards.
func (c *clusterProcs) shardObserved(stream string) (sum int64, perShard []int64, err error) {
	for _, s := range c.shards {
		st, err := getStats(s.url("/streams/" + stream + "/stats"))
		if err != nil {
			return 0, nil, err
		}
		sum += st.Observed
		perShard = append(perShard, st.Observed)
	}
	return sum, perShard, nil
}

// routerCenters is the router's merged-view payload.
type routerCenters struct {
	Observed int64       `json:"observed"`
	Shards   int         `json:"shards"`
	Centers  [][]float64 `json:"centers"`
}

func getRouterCenters(url string) (routerCenters, error) {
	var rc routerCenters
	body, err := expect200(http.MethodGet, url, nil)
	if err != nil {
		return rc, err
	}
	return rc, json.Unmarshal(body, &rc)
}

func runCluster(e *env) (*result, error) {
	res := newResult()
	bin, _, err := buildDaemon(e.outDir)
	if err != nil {
		return nil, err
	}
	seconds := referenceSeconds * e.scale
	timed, warm := int(clusterWriteRate*seconds), e.scaled(clusterWarm, 10)
	total := warm + timed
	idleBatches := e.scaled(clusterPreload/writeBatch, 16)

	setupStart := time.Now()
	scratch, err := scratchDir(e, "cluster")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	c, err := startCluster(e, bin, scratch, false, clusterBudget)
	if err != nil {
		return nil, err
	}
	defer c.kill()

	streams := []string{"hot"}
	for i := 0; i < clusterIdle; i++ {
		name := fmt.Sprintf("idle%d", i)
		streams = append(streams, name)
		src := gen.New(e.seed, "cluster", name, writeBatch, driftSmallBudget)
		if err := preload(c.router.url("/streams/"+name+"/ingest"), src.Batches(0, idleBatches)); err != nil {
			return nil, err
		}
	}
	src := gen.New(e.seed, "cluster", "hot", writeBatch, driftSmallBudget)
	coords := src.Batches(0, total)
	points := dataset(coords)
	hotURL := c.router.url("/streams/hot/ingest")
	warmStats := closedLoopWrite(setupStart, hotURL, coords, 0, warm, false)
	for _, name := range streams {
		if _, err := getRouterCenters(c.router.url("/streams/" + name + "/centers?refresh=1")); err != nil {
			return nil, err
		}
	}
	bodies := make([][]byte, timed)
	for i := range bodies {
		const per = writeBatch * gen.Dim
		bodies[i] = gen.AppendKCFL(nil, coords[(warm+i)*per:(warm+i+1)*per])
	}
	ref, err := newReference(points, points, daemonK, 0)
	if err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)

	var (
		acks, reads loopStats
		wg          sync.WaitGroup
	)
	readCount := int(clusterReadRate * seconds)
	start := time.Now().Add(10 * time.Millisecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		acks = openLoop(start, time.Second/clusterWriteRate, timed, nil, func(i int) bool {
			return ingest(hotURL, bodies[i], false)
		})
	}()
	go func() {
		defer wg.Done()
		reads = openLoop(start, time.Second/clusterReadRate, readCount, nil, func(i int) bool {
			status, _, err := do(http.MethodGet, c.router.url("/streams/"+streams[i%len(streams)]+"/centers?refresh=1"), nil)
			return err == nil && status == http.StatusOK
		})
	}()
	wg.Wait()
	wall := time.Since(start)

	res.attempted = total + readCount
	res.failed = acks.failed + warmStats.failed + reads.failed
	res.checkSchedule(wall, seconds, len(acks.latMS)+len(reads.latMS), timed+readCount)

	acked := int64(len(acks.latMS)+warmStats.acked) * writeBatch
	sum, perShard, err := c.shardObserved("hot")
	if err != nil {
		return nil, err
	}
	res.check("shards observed", sum == acked, "shards observed %v = %d, acknowledged %d", perShard, sum, acked)
	rc, err := getRouterCenters(c.router.url("/streams/hot/centers?refresh=1"))
	if err != nil {
		return nil, err
	}
	res.check("merged view observed", rc.Observed == acked && rc.Shards == clusterShards, "merged view covers %d points from %d shards, acknowledged %d", rc.Observed, rc.Shards, acked)
	_, ratio := ref.judge(res, "merged hot", toDataset(rc.Centers))

	res.set("setup_s", setup.Seconds())
	res.setRate(acks.done, writeBatch)
	res.setLatency("ack_ms", acks.latMS)
	res.setLatency("query_ms", reads.latMS)
	res.set("radius_ratio", ratio)
	res.notes = append(res.notes, fmt.Sprintf("%d writes of %d points at %d/s through the router beside %d refresh reads at %d/s over %d streams",
		timed, writeBatch, clusterWriteRate, readCount, clusterReadRate, len(streams)))
	return res, nil
}
