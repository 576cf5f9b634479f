package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"coresetclustering/bench/gen"
)

// serve_mixed: one durable daemon, one stream with a large, full coreset.
// An open-loop writer sends small JSON batches beside an open-loop reader
// asking for centres; every read follows a write, so it is an extraction-cache
// miss on a fresh version. The write rate is about 40 % of what a closed loop
// sustains here, so queueing does not swamp service time.
const (
	serveBudget    = 2048
	servePreload   = 100_000 // points in the stream before the timed section
	serveBatch     = 16
	serveWriteRate = 400 // batches per second
	serveReadRate  = 50  // centre queries per second
	serveWarm      = 200 // untimed writes (and a tenth as many reads) after the preload
)

func init() {
	register(&workload{
		name:   "serve_mixed",
		shape:  shape{k: daemonK, budget: serveBudget, batch: serveBatch, drift: driftLargeBudget, json: true, ell: 16, mu: 4},
		stream: "hot",
		run:    runServeMixed,
	})
}

func runServeMixed(e *env) (*result, error) {
	res := newResult()
	bin, _, err := buildDaemon(e.outDir)
	if err != nil {
		return nil, err
	}
	seconds := referenceSeconds * e.scale
	writes := int(serveWriteRate * seconds)
	readCount := int(serveReadRate * seconds)
	preloadBatches := e.scaled(servePreload/serveBatch, 20*4096/serveBatch)
	warm := e.scaled(serveWarm, 20)

	setupStart := time.Now()
	scratch, err := scratchDir(e, "serve_mixed")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	d, err := e.procs.start(bin, scratch, false, shardArgs(filepath.Join(scratch, "persist"), serveBudget)...)
	if err != nil {
		return nil, err
	}
	defer d.kill()

	src := gen.New(e.seed, "serve_mixed", "hot", serveBatch, driftLargeBudget)
	totalBatches := preloadBatches + warm + writes
	coords := src.Batches(0, totalBatches)
	points := dataset(coords)
	ingestURL, centersURL := d.url("/streams/hot/ingest"), d.url("/streams/hot/centers")
	per := serveBatch * gen.Dim
	if err := preload(ingestURL, coords[:preloadBatches*per]); err != nil {
		return nil, err
	}
	bodies := make([][]byte, warm+writes)
	for i := range bodies {
		b := preloadBatches + i
		bodies[i] = gen.AppendJSON(nil, coords[b*per:(b+1)*per])
	}
	for i := 0; i < warm; i++ {
		if !ingest(ingestURL, bodies[i], true) {
			return nil, fmt.Errorf("warm-up write %d failed", i)
		}
		if i%10 == 0 {
			if _, err := expect200(http.MethodGet, centersURL, nil); err != nil {
				return nil, err
			}
		}
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
	start := time.Now().Add(10 * time.Millisecond)
	wg.Add(2)
	go func() {
		defer wg.Done()
		acks = openLoop(start, time.Second/serveWriteRate, writes, nil, func(i int) bool {
			return ingest(ingestURL, bodies[warm+i], true)
		})
	}()
	go func() {
		defer wg.Done()
		reads = openLoop(start, time.Second/serveReadRate, readCount, nil, func(int) bool {
			status, _, err := do(http.MethodGet, centersURL, nil)
			return err == nil && status == http.StatusOK
		})
	}()
	wg.Wait()
	wall := time.Since(start)

	res.attempted = writes + readCount
	res.failed = acks.failed + reads.failed
	res.checkSchedule(wall, seconds, len(acks.latMS)+len(reads.latMS), writes+readCount)

	st, err := getStats(centersURL)
	if err != nil {
		return nil, err
	}
	acked := int64((preloadBatches + warm + len(acks.latMS)) * serveBatch)
	res.check("stream hot observed", st.Observed == acked, "daemon observed %d, acknowledged %d", st.Observed, acked)
	_, ratio := ref.judge(res, "stream hot", toDataset(st.Centers))
	got, err := expect200(http.MethodPost, d.url("/streams/hot/snapshot"), nil)
	if err != nil {
		return nil, err
	}
	if acks.failed == 0 {
		want, err := replaySnapshot(points, serveBudget)
		if err != nil {
			return nil, err
		}
		checkSnapshot(res, "stream hot snapshot equals library replay", got, want)
	}

	res.set("setup_s", setup.Seconds())
	res.setRate(acks.done, serveBatch)
	res.setLatency("ack_ms", acks.latMS)
	res.setLatency("query_ms", reads.latMS)
	res.set("radius_ratio", ratio)
	res.notes = append(res.notes, fmt.Sprintf("%d writes at %d/s beside %d reads at %d/s; coreset holds %d of %d points (%.0f %%)",
		writes, serveWriteRate, readCount, serveReadRate, st.WorkingMemory, serveBudget, 100*float64(st.WorkingMemory)/serveBudget))
	return res, nil
}
