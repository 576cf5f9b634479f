package main

import (
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/bench/gen"
	"coresetclustering/internal/metric"
)

// Shared pieces of the three daemon workloads. Every stream they create is a
// plain k-center stream with these parameters; the budget is per workload.
const (
	daemonK    = 20
	writeBatch = 256 // points per bulk write (ingest_bulk, cluster, preloads)
)

// scratchDir makes a private directory under the output directory for persist
// dirs and daemon logs; the caller removes it.
func scratchDir(e *env, workload string) (string, error) {
	return os.MkdirTemp(e.outDir, workload+"-*")
}

// shardArgs are the flags of one durable shard: -fsync always with group
// commit and -compact-every at their defaults.
func shardArgs(persistDir string, budget int) []string {
	return []string{
		"-persist-dir", persistDir, "-fsync", "always",
		"-k", fmt.Sprint(daemonK), "-budget", fmt.Sprint(budget), "-log-level", "warn",
	}
}

// mergeWrites returns the timed samples of several concurrent writers as one
// sequence in completion order.
func mergeWrites(writers []writeStats) (latMS []float64, done []time.Duration) {
	type sample struct {
		lat  float64
		done time.Duration
	}
	var all []sample
	for _, ws := range writers {
		for i := range ws.latMS {
			all = append(all, sample{ws.latMS[i], ws.done[i]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	for _, s := range all {
		latMS, done = append(latMS, s.lat), append(done, s.done)
	}
	return latMS, done
}

// writeStats is what one closed-loop writer measured.
type writeStats struct {
	latMS  []float64
	done   []time.Duration // completion of each timed write, since start
	acked  int             // batches acknowledged, timed or not
	failed int
}

// closedLoopWrite sends batches [from, to) of coords to url as binary frames,
// one at a time, waiting for each acknowledgement. Bodies are encoded before
// the clock is read. Warm-up writes (timed false) are sent but not timed;
// start is the origin of the completion times.
func closedLoopWrite(start time.Time, url string, coords []float64, from, to int, timed bool) writeStats {
	const per = writeBatch * gen.Dim
	var ws writeStats
	var body []byte
	for i := from; i < to; i++ {
		body = gen.AppendKCFL(body[:0], coords[i*per:(i+1)*per])
		t0 := time.Now()
		ok := ingest(url, body, false)
		lat := time.Since(t0)
		if !ok {
			ws.failed++
			continue
		}
		ws.acked++
		if timed {
			ws.latMS = append(ws.latMS, lat.Seconds()*1e3)
			ws.done = append(ws.done, t0.Add(lat).Sub(start))
		}
	}
	return ws
}

// preload sends coords to url in large binary batches; it is set-up, so it
// only has to be fast.
func preload(url string, coords []float64) error {
	const chunk = 4096 * gen.Dim
	var body []byte
	for off := 0; off < len(coords); off += chunk {
		end := min(off+chunk, len(coords))
		body = gen.AppendKCFL(body[:0], coords[off:end])
		if _, err := expect200(http.MethodPost, url, body, "Content-Type", gen.ContentTypeKCFL); err != nil {
			return err
		}
	}
	return nil
}

// replaySnapshot feeds points to a fresh library stream with the daemon's
// stream parameters and returns its snapshot: what a single-writer daemon
// stream that acknowledged exactly these points must serve byte for byte.
func replaySnapshot(points metric.Dataset, budget int) ([]byte, error) {
	s, err := kcenter.NewStreamingKCenter(daemonK, budget)
	if err != nil {
		return nil, err
	}
	if err := s.ObserveAll(points); err != nil {
		return nil, err
	}
	return s.Snapshot()
}

// parallel runs fns concurrently and returns the first error.
func parallel(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
