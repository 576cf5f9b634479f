// Command kcenterload is a load generator for kcenterd's ingest path: it
// drives concurrent batch ingest over either wire protocol (JSON or the
// binary flat-frame protocol) at a target rate, then reports sustained
// throughput (points/s, batches/s) and ack-latency percentiles (p50, p95,
// p99). The ack latency is end-to-end as a client sees it: request written to
// 200 received, which under -fsync=always includes the WAL write and the
// covering (group-committed) fsync.
//
// Usage:
//
//	kcenterload -addr 127.0.0.1:8080 -proto binary -batch 64 -dim 8 \
//	    -concurrency 8 -duration 10s
//
// With -batches N the run stops after N batches instead of after -duration.
// -rate bounds the aggregate request rate (batches/s across all writers, 0 =
// unthrottled). -window/-window-dur create the target as a sliding-window
// stream and attach timestamps to every batch (coarse wall-clock ticks; under
// high concurrency a few batches may be rejected for arriving behind the
// stream clock — they are counted as rejected, not errors, because per-stream
// clock monotonicity is the daemon's documented contract). -json emits the
// report as a single JSON object on stdout for scripted consumers (CI feeds
// it into the ingest benchmark artifact).
//
// -targets takes a comma-separated list of daemon addresses and spreads the
// load across them round-robin — point it at the shards of a cluster to
// measure direct-ingest throughput, or at a router and shards side by side.
// With more than one target the report carries a per-target ack-latency
// breakdown (batches, points and p50/p95/p99 per address), so a slow or
// overloaded backend is visible immediately instead of hiding inside the
// aggregate percentiles.
//
// The report is always printed. The exit status is then non-zero if any batch
// errored (a transport failure or a status other than 200, or 400 for a
// windowed batch behind the stream clock) or if no batch was acknowledged, and
// 0 otherwise; a writer stops at its first error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/server/httpapi"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kcenterload:", err)
		os.Exit(1)
	}
}

// loadConfig is the parsed flag set of one run.
type loadConfig struct {
	addr      string
	targets   []string // resolved ingest targets (-targets, or just -addr)
	stream    string
	proto     string
	batch     int
	dim       int
	conc      int
	rate      float64
	batches   int
	duration  time.Duration
	timeout   time.Duration
	k         int
	z         int
	budget    int
	window    int64
	windowDur int64
	jsonOut   bool
}

// report is the run summary; the JSON form is the machine interface CI and
// the benchmark artifact consume.
type report struct {
	Proto         string  `json:"proto"`
	Concurrency   int     `json:"concurrency"`
	BatchSize     int     `json:"batchSize"`
	Dim           int     `json:"dim"`
	Batches       int64   `json:"batches"`
	Points        int64   `json:"points"`
	Rejected      int64   `json:"rejected,omitempty"`
	Errors        int64   `json:"errors,omitempty"`
	FirstError    string  `json:"firstError,omitempty"`
	ElapsedSec    float64 `json:"elapsedSec"`
	PointsPerSec  float64 `json:"pointsPerSec"`
	BatchesPerSec float64 `json:"batchesPerSec"`
	LatencyMsP50  float64 `json:"latencyMsP50"`
	LatencyMsP95  float64 `json:"latencyMsP95"`
	LatencyMsP99  float64 `json:"latencyMsP99"`
	// Slowest holds the slowest acknowledged requests that carried an
	// X-Trace-ID response header, worst first — the exact traces to pull
	// from the daemon's /debug/traces/{id} after a run.
	Slowest []slowSample `json:"slowest,omitempty"`
	// Targets breaks the run down per backend address when -targets named
	// more than one, so a slow backend cannot hide in the aggregate.
	Targets []targetReport `json:"targets,omitempty"`
}

// targetReport is one backend's slice of a multi-target run.
type targetReport struct {
	Target       string  `json:"target"`
	Batches      int64   `json:"batches"`
	Points       int64   `json:"points"`
	Errors       int64   `json:"errors,omitempty"`
	LatencyMsP50 float64 `json:"latencyMsP50"`
	LatencyMsP95 float64 `json:"latencyMsP95"`
	LatencyMsP99 float64 `json:"latencyMsP99"`
}

// slowSample pairs one slow request's ack latency with the daemon-side trace
// that attributes it.
type slowSample struct {
	LatencyMs float64 `json:"latencyMs"`
	TraceID   string  `json:"traceId"`
}

// topSlow bounds how many slow samples each worker keeps and the report prints.
const topSlow = 3

func parseFlags(args []string) (*loadConfig, error) {
	cfg := &loadConfig{}
	fs := flag.NewFlagSet("kcenterload", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "daemon host:port")
	targets := fs.String("targets", "", "comma-separated daemon addresses; overrides -addr and spreads load round-robin with a per-target latency breakdown")
	fs.StringVar(&cfg.stream, "stream", "load", "target stream name")
	fs.StringVar(&cfg.proto, "proto", "binary", "wire protocol: json or binary")
	fs.IntVar(&cfg.batch, "batch", 64, "points per batch")
	fs.IntVar(&cfg.dim, "dim", 8, "point dimensionality")
	fs.IntVar(&cfg.conc, "concurrency", 4, "concurrent writers")
	fs.Float64Var(&cfg.rate, "rate", 0, "target aggregate batches/s (0 = unthrottled)")
	fs.IntVar(&cfg.batches, "batches", 0, "stop after this many batches (0 = run for -duration)")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "run length when -batches is 0")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request timeout")
	fs.IntVar(&cfg.k, "k", 0, "stream ?k= creation parameter (0 = daemon default)")
	fs.IntVar(&cfg.z, "z", 0, "stream ?z= creation parameter")
	fs.IntVar(&cfg.budget, "budget", 0, "stream ?budget= creation parameter (0 = daemon default)")
	fs.Int64Var(&cfg.window, "window", 0, "create a count-window stream of this size and send timestamps")
	fs.Int64Var(&cfg.windowDur, "window-dur", 0, "create a duration-window stream of this span and send timestamps")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the report as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.proto != "json" && cfg.proto != "binary" {
		return nil, fmt.Errorf("-proto must be json or binary, got %q", cfg.proto)
	}
	if cfg.batch <= 0 || cfg.dim <= 0 || cfg.conc <= 0 {
		return nil, errors.New("-batch, -dim and -concurrency must be positive")
	}
	if cfg.batches < 0 || cfg.rate < 0 {
		return nil, errors.New("-batches and -rate must be non-negative")
	}
	if cfg.batches == 0 && cfg.duration <= 0 {
		return nil, errors.New("-duration must be positive when -batches is 0")
	}
	if *targets != "" {
		for _, a := range strings.Split(*targets, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.targets = append(cfg.targets, a)
			}
		}
		if len(cfg.targets) == 0 {
			return nil, errors.New("-targets must name at least one address")
		}
	} else {
		cfg.targets = []string{cfg.addr}
	}
	return cfg, nil
}

// ingestURL builds one target's URL; creation parameters ride on every
// request (the daemon only honours them on the creating one).
func (cfg *loadConfig) ingestURL(addr string) string {
	u := "http://" + addr + "/streams/" + cfg.stream + "/ingest"
	q := ""
	add := func(k, v string) {
		if q == "" {
			q = "?"
		} else {
			q += "&"
		}
		q += k + "=" + v
	}
	if cfg.k > 0 {
		add("k", strconv.Itoa(cfg.k))
	}
	if cfg.z > 0 {
		add("z", strconv.Itoa(cfg.z))
	}
	if cfg.budget > 0 {
		add("budget", strconv.Itoa(cfg.budget))
	}
	if cfg.window > 0 {
		add("window", strconv.FormatInt(cfg.window, 10))
	}
	if cfg.windowDur > 0 {
		add("windowDur", strconv.FormatInt(cfg.windowDur, 10))
	}
	return u + q
}

// worker is one writer goroutine's state: a private RNG, a private reusable
// encode buffer and its latency samples.
type worker struct {
	id       int
	cfg      *loadConfig
	urls     []string // one ingest URL per target, cycled round-robin
	next     int
	client   *http.Client
	rng      *rand.Rand
	buf      []byte
	flat     *metric.Flat
	lat      []time.Duration
	slow     []slowSample // worker-local slowest traced acks, worst first
	batches  int64
	points   int64
	rejected int64
	errors   int64
	firstErr string

	// Per-target tallies, indexed like cfg.targets.
	tLat     [][]time.Duration
	tBatches []int64
	tPoints  []int64
	tErrors  []int64
}

// noteSlow keeps the worker's topSlow slowest acks that carried a trace ID
// (insertion into a tiny sorted slice; the hot path cost is one comparison).
func (w *worker) noteSlow(ack time.Duration, traceID string) {
	if traceID == "" {
		return
	}
	ms := float64(ack) / float64(time.Millisecond)
	if len(w.slow) == topSlow && ms <= w.slow[topSlow-1].LatencyMs {
		return
	}
	i := len(w.slow)
	for i > 0 && w.slow[i-1].LatencyMs < ms {
		i--
	}
	w.slow = append(w.slow, slowSample{})
	copy(w.slow[i+1:], w.slow[i:])
	w.slow[i] = slowSample{LatencyMs: ms, TraceID: traceID}
	if len(w.slow) > topSlow {
		w.slow = w.slow[:topSlow]
	}
}

// makeBatch regenerates the worker's flat batch in place.
func (w *worker) makeBatch() {
	w.flat.Reset()
	p := make(metric.Point, w.cfg.dim)
	for i := 0; i < w.cfg.batch; i++ {
		blob := float64(w.rng.Intn(5)) * 100
		for j := range p {
			p[j] = blob + w.rng.NormFloat64()
		}
		w.flat.Append(p)
	}
}

// encode serialises the current batch per the configured protocol; the
// binary frame reuses the worker's buffer. Window runs stamp every point of the batch with the
// same coarse tick so timestamps are trivially non-decreasing in-batch.
func (w *worker) encode(tick int64) (body []byte, contentType string, err error) {
	var ts []int64
	if w.windowed() {
		ts = make([]int64, w.flat.Len())
		for i := range ts {
			ts[i] = tick
		}
	}
	if w.cfg.proto == "binary" {
		w.buf = httpapi.EncodeBinaryIngest(w.buf[:0], w.flat, ts)
		return w.buf, httpapi.BinaryContentType, nil
	}
	req := struct {
		Points     metric.Dataset `json:"points"`
		Timestamps []int64        `json:"timestamps,omitempty"`
	}{Points: w.flat.Dataset(), Timestamps: ts}
	body, err = json.Marshal(&req)
	return body, "application/json", err
}

func (w *worker) windowed() bool {
	return w.cfg.window > 0 || w.cfg.windowDur > 0
}

func run(ctx context.Context, args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	urls := make([]string, len(cfg.targets))
	for i, a := range cfg.targets {
		urls[i] = cfg.ingestURL(a)
	}

	var (
		sent     atomic.Int64 // global batch budget when -batches is set
		start    = time.Now()
		deadline time.Time
	)
	if cfg.batches == 0 {
		deadline = start.Add(cfg.duration)
	}
	runCtx := ctx
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	workers := make([]*worker, cfg.conc)
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{
			id:       i,
			cfg:      cfg,
			urls:     urls,
			next:     i, // stagger the round-robin start across workers
			client:   &http.Client{Timeout: cfg.timeout},
			rng:      rand.New(rand.NewSource(int64(i) + 1)),
			tLat:     make([][]time.Duration, len(urls)),
			tBatches: make([]int64, len(urls)),
			tPoints:  make([]int64, len(urls)),
			tErrors:  make([]int64, len(urls)),
		}
		w.flat, err = metric.NewFlat(cfg.dim, cfg.batch)
		if err != nil {
			return err
		}
		workers[i] = w
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.drive(runCtx, cfg, &sent, start)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge the per-worker tallies into the report.
	rep := report{
		Proto:       cfg.proto,
		Concurrency: cfg.conc,
		BatchSize:   cfg.batch,
		Dim:         cfg.dim,
		ElapsedSec:  elapsed.Seconds(),
	}
	var all []time.Duration
	var slow []slowSample
	for _, w := range workers {
		rep.Batches += w.batches
		rep.Points += w.points
		rep.Rejected += w.rejected
		rep.Errors += w.errors
		if rep.FirstError == "" {
			rep.FirstError = w.firstErr
		}
		all = append(all, w.lat...)
		slow = append(slow, w.slow...)
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].LatencyMs > slow[j].LatencyMs })
	if len(slow) > topSlow {
		slow = slow[:topSlow]
	}
	rep.Slowest = slow
	if elapsed > 0 {
		rep.PointsPerSec = float64(rep.Points) / elapsed.Seconds()
		rep.BatchesPerSec = float64(rep.Batches) / elapsed.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.LatencyMsP50 = percentileMs(all, 0.50)
	rep.LatencyMsP95 = percentileMs(all, 0.95)
	rep.LatencyMsP99 = percentileMs(all, 0.99)

	// Per-target breakdown: only worth the noise when targets differ.
	if len(cfg.targets) > 1 {
		for ti, target := range cfg.targets {
			tr := targetReport{Target: target}
			var tlat []time.Duration
			for _, w := range workers {
				tr.Batches += w.tBatches[ti]
				tr.Points += w.tPoints[ti]
				tr.Errors += w.tErrors[ti]
				tlat = append(tlat, w.tLat[ti]...)
			}
			sort.Slice(tlat, func(i, j int) bool { return tlat[i] < tlat[j] })
			tr.LatencyMsP50 = percentileMs(tlat, 0.50)
			tr.LatencyMsP95 = percentileMs(tlat, 0.95)
			tr.LatencyMsP99 = percentileMs(tlat, 0.99)
			rep.Targets = append(rep.Targets, tr)
		}
	}

	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		if err := enc.Encode(&rep); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "proto=%s concurrency=%d batch=%d dim=%d\n",
			rep.Proto, rep.Concurrency, rep.BatchSize, rep.Dim)
		fmt.Fprintf(out, "batches=%d points=%d rejected=%d errors=%d elapsed=%.2fs\n",
			rep.Batches, rep.Points, rep.Rejected, rep.Errors, rep.ElapsedSec)
		fmt.Fprintf(out, "throughput: %.0f points/s (%.1f batches/s)\n",
			rep.PointsPerSec, rep.BatchesPerSec)
		fmt.Fprintf(out, "ack latency: p50=%.2fms p95=%.2fms p99=%.2fms\n",
			rep.LatencyMsP50, rep.LatencyMsP95, rep.LatencyMsP99)
		for i, s := range rep.Slowest {
			fmt.Fprintf(out, "slowest[%d]: %.2fms trace=%s\n", i, s.LatencyMs, s.TraceID)
		}
		for _, tr := range rep.Targets {
			fmt.Fprintf(out, "target %s: batches=%d points=%d errors=%d p50=%.2fms p95=%.2fms p99=%.2fms\n",
				tr.Target, tr.Batches, tr.Points, tr.Errors,
				tr.LatencyMsP50, tr.LatencyMsP95, tr.LatencyMsP99)
		}
	}
	switch {
	case rep.Errors > 0:
		return fmt.Errorf("%d batches errored, the first with: %s", rep.Errors, rep.FirstError)
	case rep.Batches == 0:
		return errors.New("no batch was acknowledged")
	}
	return nil
}

// drive is one writer's send loop: claim a batch slot (either from the global
// -batches budget or until the deadline), pace it against -rate, send, record.
func (w *worker) drive(ctx context.Context, cfg *loadConfig, sent *atomic.Int64, start time.Time) {
	for {
		if ctx.Err() != nil {
			return
		}
		n := sent.Add(1) - 1 // this batch's global slot, 0-based
		if cfg.batches > 0 && n >= int64(cfg.batches) {
			return
		}
		if cfg.rate > 0 {
			// Slot pacing: batch n is due at start + n/rate, whichever
			// worker claims it.
			due := start.Add(time.Duration(float64(n) / cfg.rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
		}
		tick := int64(time.Since(start) / (10 * time.Millisecond))
		ti := w.next % len(w.urls)
		w.next++
		w.makeBatch()
		body, contentType, err := w.encode(tick)
		if err != nil {
			w.fail(ti, err.Error())
			return
		}
		req, err := http.NewRequestWithContext(ctx, "POST", w.urls[ti], bytes.NewReader(body))
		if err != nil {
			w.fail(ti, err.Error())
			return
		}
		req.Header.Set("Content-Type", contentType)
		t0 := time.Now()
		resp, err := w.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return // deadline hit mid-request, not a failure
			}
			w.fail(ti, err.Error())
			return
		}
		ack := time.Since(t0)
		switch {
		case resp.StatusCode == http.StatusOK:
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			w.batches++
			w.points += int64(cfg.batch)
			w.lat = append(w.lat, ack)
			w.tBatches[ti]++
			w.tPoints[ti] += int64(cfg.batch)
			w.tLat[ti] = append(w.tLat[ti], ack)
			w.noteSlow(ack, resp.Header.Get("X-Trace-ID"))
		case resp.StatusCode == http.StatusBadRequest && w.windowed():
			// Expected under concurrent windowed load: this batch's tick
			// lost the race against the stream clock.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			w.rejected++
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			w.fail(ti, fmt.Sprintf("status %d: %s", resp.StatusCode, msg))
			return
		}
	}
}

func (w *worker) fail(ti int, msg string) {
	w.errors++
	w.tErrors[ti]++
	if w.firstErr == "" {
		w.firstErr = msg
	}
}

// percentileMs returns the q-th percentile of sorted samples, in
// milliseconds (nearest-rank).
func percentileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
