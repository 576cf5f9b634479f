package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"coresetclustering/bench/gen"
	"coresetclustering/internal/metric"
)

// ingest_bulk: one durable daemon, two closed-loop writers, each on its own
// stream, sending binary batches of 256. A light open-loop reader (50 centre
// queries a second, alternating streams, every one a cache miss on a fresh
// version) supplies the query latencies; at budget 320 an extraction costs
// about 0.1 ms, so the reader takes about 1 % of the daemon.
const (
	bulkClients  = 2
	bulkBatches  = 4000 // timed batches per client at the reference run length
	bulkWarm     = 300  // untimed batches per client before them
	bulkBudget   = 320
	bulkReadRate = 50 // reads per second
)

func init() {
	register(&workload{
		name:   "ingest_bulk",
		shape:  shape{k: daemonK, budget: bulkBudget, batch: writeBatch, drift: driftSmallBudget, ell: 16, mu: 4},
		stream: "s0",
		run:    runIngestBulk,
	})
}

func runIngestBulk(e *env) (*result, error) {
	res := newResult()
	bin, _, err := buildDaemon(e.outDir)
	if err != nil {
		return nil, err
	}
	timed, warm := e.scaled(bulkBatches, 50), e.scaled(bulkWarm, 10)
	total := warm + timed

	setupStart := time.Now()
	scratch, err := scratchDir(e, "ingest_bulk")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	d, err := e.procs.start(bin, scratch, false, shardArgs(filepath.Join(scratch, "persist"), bulkBudget)...)
	if err != nil {
		return nil, err
	}
	defer d.kill()

	coords := make([][]float64, bulkClients)
	points := make([]metric.Dataset, bulkClients)
	refs := make([]*reference, bulkClients)
	urls := make([]string, bulkClients)
	warmStats := make([]writeStats, bulkClients)
	var prep []func() error
	for c := 0; c < bulkClients; c++ {
		urls[c] = d.url(fmt.Sprintf("/streams/s%d/ingest", c))
		prep = append(prep, func() error {
			src := gen.New(e.seed, "ingest_bulk", fmt.Sprintf("s%d", c), writeBatch, driftSmallBudget)
			coords[c] = src.Batches(0, total)
			points[c] = dataset(coords[c])
			warmStats[c] = closedLoopWrite(setupStart, urls[c], coords[c], 0, warm, false)
			var err error
			refs[c], err = newReference(points[c], points[c], daemonK, 0)
			return err
		})
	}
	if err := parallel(prep...); err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)

	// Timed section: both writers and the reader start together.
	stats := make([]writeStats, bulkClients)
	stop := make(chan struct{})
	var (
		reads   loopStats
		wg, rwg sync.WaitGroup
	)
	start := time.Now()
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		period := time.Second / bulkReadRate
		reads = openLoop(start, period, 1<<30, stop, func(i int) bool {
			status, _, err := do(http.MethodGet, d.url(fmt.Sprintf("/streams/s%d/centers", i%bulkClients)), nil)
			return err == nil && status == http.StatusOK
		})
	}()
	for c := 0; c < bulkClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[c] = closedLoopWrite(start, urls[c], coords[c], warm, total, true)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	rwg.Wait()

	ackMS, done := mergeWrites(stats)
	for c := range stats {
		res.failed += stats[c].failed + warmStats[c].failed
	}
	res.attempted = bulkClients*total + len(reads.latMS) + reads.failed
	res.failed += reads.failed

	// Final state: every acknowledged point is observed, the snapshot is the
	// library's, and it survives SIGKILL byte for byte.
	var ratios []float64
	pre := make([][]byte, bulkClients)
	for c := 0; c < bulkClients; c++ {
		label := fmt.Sprintf("stream s%d", c)
		st, err := getStats(d.url(fmt.Sprintf("/streams/s%d/centers", c)))
		if err != nil {
			return nil, err
		}
		acked := int64(stats[c].acked+warmStats[c].acked) * writeBatch
		res.check(label+" observed", st.Observed == acked, "daemon observed %d, acknowledged %d", st.Observed, acked)
		_, ratio := refs[c].judge(res, label, toDataset(st.Centers))
		ratios = append(ratios, ratio)
		if pre[c], err = expect200(http.MethodPost, d.url(fmt.Sprintf("/streams/s%d/snapshot", c)), nil); err != nil {
			return nil, err
		}
	}
	want := make([][]byte, bulkClients)
	var replays []func() error
	for c := 0; c < bulkClients; c++ {
		replays = append(replays, func() (err error) {
			want[c], err = replaySnapshot(points[c], bulkBudget)
			return err
		})
	}
	if err := parallel(replays...); err != nil {
		return nil, err
	}
	d.kill()
	if err := d.launch(); err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	for c := 0; c < bulkClients; c++ {
		checkSnapshot(res, fmt.Sprintf("stream s%d snapshot equals library replay", c), pre[c], want[c])
		post, err := expect200(http.MethodPost, d.url(fmt.Sprintf("/streams/s%d/snapshot", c)), nil)
		if err != nil {
			return nil, err
		}
		checkSnapshot(res, fmt.Sprintf("stream s%d snapshot survives SIGKILL", c), post, pre[c])
	}

	res.set("setup_s", setup.Seconds())
	res.setRate(done, writeBatch)
	res.setLatency("ack_ms", ackMS)
	res.setLatency("query_ms", reads.latMS)
	res.set("radius_ratio", (ratios[0]+ratios[1])/2)
	res.notes = append(res.notes, fmt.Sprintf("%d clients x %d timed batches of %d in %.3f s", bulkClients, timed, writeBatch, wall.Seconds()))
	return res, nil
}
