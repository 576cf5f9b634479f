package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"coresetclustering/bench/gen"
	"coresetclustering/bench/trace"
)

// profilePoints is the length of the stream prefix the in-process layer
// replays consume, at the reference run length.
const profilePoints = 60_000

// budget is one printed table: what share of an end-to-end figure each named
// layer accounts for.
type budget struct {
	title  string
	figure time.Duration
	rows   []budgetRow
}

type budgetRow struct {
	layer      string
	calls      int
	busy, self time.Duration
}

func (b budget) print() {
	if b.figure <= 0 {
		return
	}
	fmt.Printf("  budget: %s = %v\n", b.title, b.figure.Round(time.Microsecond))
	fmt.Printf("    %-28s %7s %14s %14s %7s\n", "layer", "calls", "busy", "self", "share")
	var attributed time.Duration
	for _, r := range b.rows {
		attributed += r.self
		fmt.Printf("    %-28s %7d %14v %14v %6.1f%%\n", r.layer, r.calls,
			r.busy.Round(time.Microsecond), r.self.Round(time.Microsecond), 100*float64(r.self)/float64(b.figure))
	}
	fmt.Printf("    %-28s %7s %14s %14v %6.1f%%\n", "attributed", "", "", attributed.Round(time.Microsecond), 100*float64(attributed)/float64(b.figure))
}

// pipelineBudget folds the spans under the pipeline replay and sets their
// self times against the wall time of the real solve.
func pipelineBudget(rec *trace.Recorder, pipeID int, solve time.Duration) budget {
	inPipe := map[int]bool{pipeID: true}
	var spans []trace.Span
	for _, sp := range rec.Spans() { // IDs ascend, so parents come first
		if inPipe[sp.Parent] {
			inPipe[sp.ID] = true
			spans = append(spans, sp)
		}
	}
	b := budget{title: "library solve (MapReduce pipeline at this workload's sizes)", figure: solve}
	for _, lt := range trace.Fold(spans) {
		b.rows = append(b.rows, budgetRow{layer: lt.Name, calls: lt.Calls, busy: lt.Busy, self: lt.Self})
	}
	// Partitions are built on parallel goroutines, so coreset.build is busy
	// for longer than the round lasts; its share is the round's wall time
	// that its spans cover, which Fold already took out of core.round1.
	for i := range b.rows {
		if b.rows[i].layer != "coreset.build" {
			continue
		}
		for _, r := range b.rows {
			if r.layer == "core.round1" {
				b.rows[i].self = r.busy - r.self
			}
		}
	}
	return b
}

// stageBudget sets the daemon's per-request stage medians, read from its own
// /debug/traces, against the ack latency a client measured in the same phase.
// Busy is a stage's span, self the part of it no later-starting stage covers.
// The table uses means, not medians, so that its rows add up to the figure.
func stageBudget(st stages, ackMeanUS float64) budget {
	b := budget{title: "write acknowledgement, client-side mean of the sampled requests", figure: time.Duration(ackMeanUS * 1e3)}
	names := make([]string, 0, len(st.exclusive))
	for name := range st.exclusive {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		self := time.Duration(mean(st.exclusive[name]) * 1e3)
		busy := self
		if raw, ok := st.raw[name]; ok {
			busy = time.Duration(mean(raw) * 1e3)
		}
		b.rows = append(b.rows, budgetRow{layer: "stage." + name, calls: len(st.exclusive[name]), busy: busy, self: self})
	}
	return b
}

// runProfile is the traced pass of one workload.
func runProfile(e *env, w *workload) (*result, error) {
	res := newResult()
	sh := w.shape
	bin, buildDur, err := buildDaemon(e.outDir)
	if err != nil {
		return nil, err
	}
	res.set("proc.build_s", buildDur.Seconds())
	scratch, err := scratchDir(e, w.name+"-trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	p := &profiler{e: e, res: res, sh: sh, rec: e.rec}
	p.root = p.rec.Start(0, "replay")

	// The stream prefix every section but the pipeline consumes: the first
	// replay writes feed the in-process sections, the daemon sections go on
	// from their preload through their phases without repeating a point.
	replay := e.scaled(profilePoints, 8192) / sh.batch
	writes := max(replay, e.scaled(profPreload, 4096)/sh.batch+2*e.scaled(profPhase, 48)+e.scaled(profOther, 32))
	points := writes * sh.batch
	src := gen.New(e.seed, w.name, w.stream, w.genBatch, sh.drift)
	p.coords = src.Batches(0, (points+w.genBatch-1)/w.genBatch)[:points*gen.Dim]
	all := dataset(p.coords)
	for i := 0; i+sh.batch <= len(all); i += sh.batch {
		p.batches = append(p.batches, all[i:i+sh.batch])
	}
	p.replay = p.batches[:replay]
	all = all[:replay*sh.batch]

	// The MapReduce workloads replay their first dataset whole; the stream
	// workloads replay the pipeline on their prefix.
	pipePoints, pipeInliers := all, all
	if w.mr != nil {
		pipePoints, pipeInliers = mrDataset(e.seed, *w.mr, w.mr.size(e), 0)
	}
	pipe, err := p.pipeline(pipePoints, pipeInliers)
	if err != nil {
		return nil, fmt.Errorf("pipeline replay: %w", err)
	}
	p.kernels(pipePoints)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"streaming", p.streaming},
		{"window", p.window},
		{"sketch", p.sketch},
		{"persist", func() error { return p.persistLayer(scratch) }},
		{"decode", p.decodeLayer},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			return nil, fmt.Errorf("%s replay: %w", s.name, err)
		}
	}
	engineIngestUS, err := p.engineLayer()
	if err != nil {
		return nil, fmt.Errorf("engine replay: %w", err)
	}
	p.rec.End(p.root)

	stage, err := p.daemonSection(bin, scratch, engineIngestUS)
	if err != nil {
		return nil, fmt.Errorf("daemon section: %w", err)
	}
	if err := p.routerSection(bin, scratch); err != nil {
		return nil, fmt.Errorf("router section: %w", err)
	}

	path := filepath.Join(e.outDir, "trace_"+w.name+".json")
	if err := p.rec.WriteFile(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d harness spans written to %s", len(p.rec.Spans()), path))
	res.budgets = []budget{pipe, stage, replayBudget(p.rec, p.root)}
	return res, nil
}

// replayBudget lists every replayed layer operation by the time the harness
// spent in it, as a share of the whole in-process replay.
func replayBudget(rec *trace.Recorder, root int) budget {
	var spans []trace.Span
	var total time.Duration
	for _, sp := range rec.Spans() {
		if sp.ID == root {
			total = time.Duration(sp.EndNS - sp.StartNS)
		}
		if sp.Parent == root {
			spans = append(spans, sp)
		}
	}
	b := budget{title: "in-process layer replay, one layer at a time", figure: total}
	for _, lt := range trace.Fold(spans) {
		b.rows = append(b.rows, budgetRow{layer: lt.Name, calls: lt.Calls, busy: lt.Busy, self: lt.Busy})
	}
	return b
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
