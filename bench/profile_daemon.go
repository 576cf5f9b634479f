package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"coresetclustering/bench/gen"
	"coresetclustering/bench/trace"
)

// The daemon sections of the traced pass run real kcenterd processes at the
// workload's stream sizes and wire format. Phase counts are per client at the
// reference run length.
const (
	profPreload   = 40_000 // points in every stream before a phase measures it
	profPhase     = 500    // writes per client in the untraced and the traced phase
	profOther     = 200    // writes in the other wire format
	profDirect    = 400    // writes per format against the in-memory daemon, per path in the router section
	profReads     = 30     // refresh and cached reads in the router section
	profReadRate  = 50     // open-loop reads per second beside the write phases
	traceEveryNth = 16     // requests carrying a sampled traceparent in traced phases
)

// traceparent returns a sampled W3C header and its trace ID.
func traceparent(rng *rand.Rand) (header, id string) {
	id = fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64()|1)
	return fmt.Sprintf("00-%s-%016x-01", id, rng.Uint64()|1), id
}

// spanNode is the daemon's /debug/traces/{id} span tree.
type spanNode struct {
	Name     string      `json:"name"`
	Start    string      `json:"start"` // offset from the trace start
	Duration string      `json:"duration"`
	Children []*spanNode `json:"children"`
}

// stages is what the daemon's own traces say about a set of requests: per
// stage name, the span durations (raw, µs) and the exclusive times (µs). Stages
// overlap — wal.wait runs from the journal enqueue to the fsync, across apply
// and publish — so a stage's exclusive time leaves out whatever a stage that
// started later covers; the exclusive times of one request, plus "transport"
// (the root span not covered by any stage), sum to the root span.
type stages struct {
	raw, exclusive map[string][]float64
}

func (s stages) median(name string) float64 { return trace.Median(s.raw[name]) }

// stageTimes fetches the traces with the given IDs from the daemon's debug
// listener. A trace the daemon did not retain is skipped. clientMS, when not
// nil, holds the latency the client measured for each ID; what it exceeds the
// daemon's root span by is the exclusive time of "wire": the kernel's
// loopback, net/http outside the handler, and the harness's own client.
func stageTimes(debugAddr string, ids []string, clientMS []float64) stages {
	out := stages{raw: map[string][]float64{}, exclusive: map[string][]float64{}}
	type interval struct {
		name   string
		lo, hi time.Duration
	}
	for i, id := range ids {
		status, body, err := do(http.MethodGet, "http://"+debugAddr+"/debug/traces/"+id, nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var detail struct {
			Root *spanNode `json:"root"`
		}
		if json.Unmarshal(body, &detail) != nil || detail.Root == nil {
			continue
		}
		root, err := time.ParseDuration(detail.Root.Duration)
		if err != nil {
			continue
		}
		var kids []interval
		for _, c := range detail.Root.Children {
			lo, err1 := time.ParseDuration(c.Start)
			d, err2 := time.ParseDuration(c.Duration)
			if err1 == nil && err2 == nil {
				kids = append(kids, interval{c.Name, lo, lo + d})
				out.raw[c.Name] = append(out.raw[c.Name], us(d))
			}
		}
		// Sweep the elementary intervals between span boundaries; each goes
		// to the covering stage that started last.
		var cuts []time.Duration
		for _, k := range kids {
			cuts = append(cuts, k.lo, k.hi)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		own := make([]time.Duration, len(kids))
		var covered time.Duration
		for c := 0; c+1 < len(cuts); c++ {
			owner := -1
			for j, k := range kids {
				if k.lo <= cuts[c] && k.hi >= cuts[c+1] && (owner < 0 || k.lo > kids[owner].lo) {
					owner = j
				}
			}
			if owner >= 0 {
				own[owner] += cuts[c+1] - cuts[c]
				covered += cuts[c+1] - cuts[c]
			}
		}
		for j, k := range kids {
			out.exclusive[k.name] = append(out.exclusive[k.name], us(own[j]))
		}
		out.exclusive["transport"] = append(out.exclusive["transport"], us(root-covered))
		if clientMS != nil {
			out.exclusive["wire"] = append(out.exclusive["wire"], clientMS[i]*1e3-us(root))
		}
	}
	return out
}

// selfCPU returns this process's user+system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// phaseStats is one closed-loop write phase.
type phaseStats struct {
	ackMS  []float64
	points int
	wall   time.Duration
	ids    []string  // trace IDs of the sampled requests that succeeded
	idMS   []float64 // client-side latency of each of them
	failed int
}

// add folds another phase of the same kind into ps.
func (ps *phaseStats) add(o phaseStats) {
	ps.ackMS = append(ps.ackMS, o.ackMS...)
	ps.ids = append(ps.ids, o.ids...)
	ps.idMS = append(ps.idMS, o.idMS...)
	ps.points += o.points
	ps.wall += o.wall
	ps.failed += o.failed
}

// phaseChunks is how many untraced/traced pairs the two write phases are cut
// into.
const phaseChunks = 2

// writePhase runs one closed-loop writer per URL, writer c sending writes
// [from, from+count) of the prefix to urls[c]. With sampleEvery > 0, every
// sampleEvery-th request carries a sampled traceparent.
func (p *profiler) writePhase(urls []string, from, count int, asJSON bool, sampleEvery int) phaseStats {
	per := p.sh.batch * gen.Dim
	var (
		mu sync.Mutex
		ps phaseStats
		wg sync.WaitGroup
	)
	start := time.Now()
	for c, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(p.e.seed, uint64(from*len(urls)+c)))
			var mine phaseStats
			var body []byte
			for i := from; i < from+count; i++ {
				body = encode(body[:0], p.coords[i*per:(i+1)*per], asJSON)
				var hdr []string
				var id string
				if sampleEvery > 0 && i%sampleEvery == 0 {
					var h string
					h, id = traceparent(rng)
					hdr = []string{"traceparent", h}
				}
				t0 := time.Now()
				ok := ingest(url, body, asJSON, hdr...)
				ms := time.Since(t0).Seconds() * 1e3
				if !ok {
					mine.failed++
					continue
				}
				mine.ackMS = append(mine.ackMS, ms)
				if id != "" {
					mine.ids, mine.idMS = append(mine.ids, id), append(mine.idMS, ms)
				}
			}
			mu.Lock()
			ps.add(mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ps.wall = time.Since(start)
	ps.points = len(ps.ackMS) * p.sh.batch
	return ps
}

// preloadStream fills a stream with the first profPreload points of the
// prefix, so a measured phase meets a coreset in its steady state.
func (p *profiler) preloadStream(url string, batches int) error {
	return preload(url, p.coords[:batches*p.sh.batch*gen.Dim])
}

// daemonSection measures one durable daemon (stages, group commit, tracing
// overhead, process cost, restart) and one in-memory daemon (transport and
// JSON overhead over the engine). engineIngestUS is engine.ingest_us.
func (p *profiler) daemonSection(bin, scratch string, engineIngestUS float64) (budget, error) {
	e, sh, res := p.e, p.sh, p.res
	preBatches := min(e.scaled(profPreload, 4096)/sh.batch, len(p.batches))
	phase := e.scaled(profPhase, 48)
	other := e.scaled(profOther, 32)

	args := append(shardArgs(filepath.Join(scratch, "persist"), sh.budget), "-trace-buffer", "4096")
	d, err := e.procs.start(bin, scratch, true, args...)
	if err != nil {
		return budget{}, err
	}
	defer d.kill()
	urls := []string{d.url("/streams/s0/ingest"), d.url("/streams/s1/ingest")}
	for _, u := range urls {
		if err := p.preloadStream(u, preBatches); err != nil {
			return budget{}, err
		}
	}

	// An open-loop reader runs beside both write phases, so they carry the
	// same load; it samples traces only in the traced one.
	reader := func(traced bool, stop <-chan struct{}, out *phaseStats, late *float64) {
		rng := rand.New(rand.NewPCG(e.seed, 77))
		ls := openLoop(time.Now(), time.Second/profReadRate, 1<<30, stop, func(i int) bool {
			var hdr []string
			if traced && i%4 == 0 {
				h, id := traceparent(rng)
				hdr = []string{"traceparent", h}
				out.ids = append(out.ids, id)
			}
			status, _, err := do(http.MethodGet, d.url(fmt.Sprintf("/streams/s%d/centers", i%2)), nil, hdr...)
			return err == nil && status == http.StatusOK
		})
		out.ackMS, out.failed, *late = ls.latMS, ls.failed, ls.lateMaxMS
	}
	runPhase := func(from int, traced bool) (phaseStats, phaseStats, float64) {
		var reads phaseStats
		var late float64
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() { reader(traced, stop, &reads, &late); close(done) }()
		sample := 0
		if traced {
			sample = traceEveryNth
		}
		ws := p.writePhase(urls, from, phase/phaseChunks, sh.json, sample)
		close(stop)
		<-done
		return ws, reads, late
	}

	cpu0, _, err := d.rusage()
	if err != nil {
		return budget{}, err
	}
	self0 := selfCPU()
	// Untraced and traced halves alternate, so that neither owns the warmer
	// or the fuller stream.
	var untraced, traced, reads phaseStats
	var late float64
	for chunk := 0; chunk < 2*phaseChunks; chunk++ {
		ws, rs, l := runPhase(preBatches+chunk*phase/phaseChunks, chunk%2 == 1)
		late = max(late, l)
		if chunk%2 == 1 {
			traced.add(ws)
			reads.add(rs)
		} else {
			untraced.add(ws)
		}
	}
	self1 := selfCPU()
	cpu1, _, _ := d.rusage()
	// The other wire format, one client, every fourth request sampled: the
	// validate stage exists only on the JSON path.
	otherPhase := p.writePhase(urls[:1], preBatches+2*phase, other, !sh.json, 4)
	cpu2, rss, _ := d.rusage()
	res.failed += untraced.failed + traced.failed + otherPhase.failed + reads.failed
	res.attempted += 2*2*phase + other + len(reads.ackMS) + reads.failed

	jsonIDs := otherPhase.ids
	if sh.json {
		jsonIDs = traced.ids
	}
	writeStages := stageTimes(d.debug, traced.ids, traced.idMS)
	jsonStages := stageTimes(d.debug, jsonIDs, nil)
	readStages := stageTimes(d.debug, reads.ids, nil)
	for _, m := range []struct {
		metric, span string
		from         stages
	}{
		{"stage.decode_us", "decode", writeStages},
		{"stage.validate_us", "validate", jsonStages},
		{"stage.journal_us", "journal", writeStages},
		{"stage.wal_wait_us", "wal.wait", writeStages},
		{"stage.apply_us", "apply", writeStages},
		{"stage.publish_us", "publish", writeStages},
		{"stage.extraction_us", "extract", readStages},
	} {
		res.set(m.metric, m.from.median(m.span))
		if len(m.from.raw[m.span]) == 0 {
			res.notes = append(res.notes, "the daemon emitted no "+m.span+" span; "+m.metric+" reads 0")
		}
	}

	untracedRate := float64(untraced.points) / untraced.wall.Seconds()
	tracedRate := float64(traced.points) / traced.wall.Seconds()
	res.set("obs.trace_overhead_ratio", untracedRate/tracedRate)
	res.set("gen.late_ms_max", late)
	res.set("gen.cpu_share", (self1-self0)/((self1-self0)+(cpu1-cpu0)))

	acked := float64(len(untraced.ackMS) + len(traced.ackMS) + len(otherPhase.ackMS))
	commits, err := scrape(d.url("/metrics"), "kcenterd_wal_group_commits_total")
	if err != nil {
		return budget{}, err
	}
	// The preload's writes were group commits too.
	preloadWrites := float64(2 * ((preBatches*sh.batch + 4095) / 4096))
	res.set("persist.batches_per_fsync", (acked+preloadWrites)/max(commits, 1))
	var hits, misses, versions int64
	for s := 0; s < 2; s++ {
		st, err := getStats(d.url(fmt.Sprintf("/streams/s%d/stats", s)))
		if err != nil {
			return budget{}, err
		}
		hits, misses, versions = hits+st.Cache.Hits, misses+st.Cache.Misses, versions+st.Version
	}
	res.set("engine.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	res.set("engine.versions", float64(versions))
	measuredPoints := float64(untraced.points + traced.points + otherPhase.points)
	res.set("proc.cpu_s_per_mpoint", (cpu2-cpu0)/(measuredPoints/1e6))
	res.set("proc.peak_rss_mb", rss)

	d.kill()
	t0 := time.Now()
	if err := d.launch(); err != nil {
		return budget{}, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	res.set("persist.restart_ms", time.Since(t0).Seconds()*1e3)
	d.kill()

	// In-memory daemon, one client: what HTTP and the wire formats add to
	// Engine.Ingest on the same batches.
	mem, err := e.procs.start(bin, scratch, false, "-k", fmt.Sprint(sh.k), "-budget", fmt.Sprint(sh.budget), "-log-level", "warn")
	if err != nil {
		return budget{}, err
	}
	defer mem.kill()
	memURL := []string{mem.url("/streams/m/ingest")}
	if err := p.preloadStream(memURL[0], preBatches); err != nil {
		return budget{}, err
	}
	direct := e.scaled(profDirect, 48)
	bin1 := p.writePhase(memURL, preBatches, direct, false, 0)
	json1 := p.writePhase(memURL, preBatches+direct, direct, true, 0)
	res.failed += bin1.failed + json1.failed
	res.attempted += 2 * direct
	binP50, jsonP50 := trace.Median(bin1.ackMS)*1e3, trace.Median(json1.ackMS)*1e3
	res.set("httpapi.overhead_us", binP50-engineIngestUS)
	res.set("httpapi.json_extra_us", jsonP50-binP50)

	return stageBudget(writeStages, mean(traced.idMS)*1e3), nil
}

// routerSection measures what the router adds: the same writes through the
// router and straight to one shard, refresh and cached reads, and the
// router's own counters.
func (p *profiler) routerSection(bin, scratch string) error {
	e, sh, res := p.e, p.sh, p.res
	c, err := startCluster(e, bin, scratch, false, sh.budget)
	if err != nil {
		return err
	}
	defer c.kill()
	preBatches := min(e.scaled(profPreload, 4096)/sh.batch, len(p.batches))
	routed, direct := c.router.url("/streams/r/ingest"), c.shards[0].url("/streams/d/ingest")
	for _, u := range []string{routed, direct} {
		if err := p.preloadStream(u, preBatches); err != nil {
			return err
		}
	}
	n := e.scaled(profDirect, 48)
	viaRouter := p.writePhase([]string{routed}, preBatches, n, sh.json, 0)
	toShard := p.writePhase([]string{direct}, preBatches, n, sh.json, 0)
	res.failed += viaRouter.failed + toShard.failed
	res.attempted += 2 * n
	res.set("router.overhead_us", (trace.Median(viaRouter.ackMS)-trace.Median(toShard.ackMS))*1e3)

	reads := e.scaled(profReads, 12)
	var refreshMS []float64
	for i := 0; i < 2*reads; i++ {
		url := c.router.url("/streams/r/centers")
		if i%2 == 0 {
			url += "?refresh=1"
		}
		t0 := time.Now()
		status, _, err := do(http.MethodGet, url, nil)
		res.attempted++
		if err != nil || status != http.StatusOK {
			res.failed++
			continue
		}
		if i%2 == 0 {
			refreshMS = append(refreshMS, time.Since(t0).Seconds()*1e3)
		}
	}
	res.set("router.refresh_ms", trace.Median(refreshMS))

	_, perShard, err := c.shardObserved("r")
	if err != nil {
		return err
	}
	var sum, maxObs float64
	for _, o := range perShard {
		sum += float64(o)
		maxObs = max(maxObs, float64(o))
	}
	res.set("router.shard_skew", maxObs/(sum/float64(len(perShard))))
	metricsURL := c.router.url("/metrics")
	retries, err := scrape(metricsURL, "kcenterd_router_shard_retries_total")
	if err != nil {
		return err
	}
	merges, _ := scrape(metricsURL, "kcenterd_router_merges_total")
	cacheHits, _ := scrape(metricsURL, "kcenterd_router_merge_cache_hits_total")
	res.set("router.retries", retries)
	res.set("router.merge_cache_hit_ratio", cacheHits/max(cacheHits+merges, 1))
	return nil
}
