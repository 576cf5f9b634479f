// Command bench is the repository's benchmark: one command, six workloads,
// end-to-end metrics measured with tracing off and a per-layer budget from a
// separate traced pass. See README.md in this directory and BENCHMARK.json at
// the repository root.
//
// Run it from this directory (or with go run -C bench . from the root):
//
//	go run . --seed 1                       # every workload, end to end
//	go run . --workload serve_mixed --seed 2
//	go run . --workload ingest_bulk --trace 1
//	go run . --smoke
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the exit code is non-zero when a
// correctness check failed (the metrics are still printed).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"coresetclustering/bench/trace"
)

// referenceSeconds is the --seconds value the counts in sizes.go are written
// for; other values scale them linearly.
const referenceSeconds = 10

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the machine-readable last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env is what a workload run receives.
type env struct {
	seed    uint64
	scale   float64 // counts multiplier: seconds/referenceSeconds, 1/20 of that under --smoke
	outDir  string  // scratch and outputs, inside the checkout
	procs   *procSet
	rec     *trace.Recorder // traced pass only
	started time.Time
}

// scaled returns n scaled to the run length, at least floor.
func (e *env) scaled(n, floor int) int {
	v := int(float64(n)*e.scale + 0.5)
	if v < floor {
		v = floor
	}
	return v
}

// result is what a workload run returns.
type result struct {
	attempted int
	failed    int
	checks    []check
	metrics   map[string]metricValue
	samples   map[string]int // sample count behind each timing, for the printed table
	notes     []string
	budgets   []budget // traced pass only
}

func newResult() *result {
	return &result{metrics: map[string]metricValue{}, samples: map[string]int{}}
}

func (r *result) set(name string, value float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		if unit, ok = perLayerUnits[name]; !ok {
			panic("bench: metric " + name + " is not in the metric tables")
		}
	}
	r.metrics[name] = metricValue{Value: value, Unit: unit}
}

// setLatency records the p50/p75 pair of one latency sample set (ms, in
// arrival order) and notes the highest percentile the sample count supports.
func (r *result) setLatency(prefix string, samplesMS []float64) {
	s := trace.SummarizeSegments(samplesMS)
	r.set(prefix+"_p50", s.P50)
	r.set(prefix+"_p75", s.P75)
	r.samples[prefix+"_p50"] = s.N
	r.samples[prefix+"_p75"] = s.N
	r.notes = append(r.notes, fmt.Sprintf("%s: midmean over %d consecutive parts; p%g of all %d samples = %.6g ms",
		prefix, trace.Parts(s.N), s.TailP, s.N, s.Tail))
}

// setRate records ingest_points_per_s from the completion times of the timed
// writes (ascending offsets from the start of the timed section, each worth
// points points): the midmean rate over the same consecutive parts the
// latencies are cut into (trace.Parts).
func (r *result) setRate(done []time.Duration, points int) {
	r.samples["ingest_points_per_s"] = len(done)
	if len(done) == 0 { // every write failed; the run is already incorrect
		r.set("ingest_points_per_s", 0)
		return
	}
	parts := trace.Parts(len(done))
	per := len(done) / parts
	var rates []float64
	var from time.Duration
	for i := 1; i <= parts; i++ {
		to := done[i*per-1]
		rates = append(rates, float64(per*points)/(to-from).Seconds())
		from = to
	}
	r.set("ingest_points_per_s", trace.MidMean(rates))
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

func main() {
	// Children are started with Pdeathsig, which is tied to the starting
	// thread: pin main to its thread so that thread lives as long as we do.
	runtime.LockOSThread()
	os.Exit(run())
}

func run() (code int) {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Uint64("seed", 1, "input seed")
		seconds      = flag.Int("seconds", referenceSeconds, "run length the counts are scaled to")
		traced       = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
		smoke        = flag.Bool("smoke", false, "every workload at 1/20 size, both passes, names checked against BENCHMARK.json")
		outDir       = flag.String("out", "out", "directory for scratch files and span dumps")
	)
	flag.Parse()
	if *seconds < 1 || *seconds > 60 || *traced < 0 || *traced > 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be 1..60, --trace 0 or 1, and no positional arguments")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var names []string
	if *workloadFlag == "all" || *smoke {
		names = workloadNames()
	} else if _, ok := workloads[*workloadFlag]; ok {
		names = []string{*workloadFlag}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadFlag, strings.Join(workloadNames(), ", "))
		return 2
	}
	abs, err := filepath.Abs(*outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	procs := &procSet{}
	// Every child dies with us: on return or panic (deferred), on
	// SIGINT/SIGTERM (handler), and on SIGKILL (Pdeathsig, see proc.go).
	defer procs.killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		procs.killAll()
		os.Exit(130)
	}()

	scale := float64(*seconds) / referenceSeconds
	passes := []int{*traced}
	if *smoke {
		scale /= 20
		passes = []int{0, 1}
	}

	total := report{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		for _, pass := range passes {
			e := &env{seed: *seed, scale: scale, outDir: abs, procs: procs, started: time.Now()}
			var res *result
			if pass == 1 {
				e.rec = trace.NewRecorder(name, time.Now)
				res, err = runProfile(e, workloads[name])
			} else {
				res, err = workloads[name].run(e)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			printResult(name, pass, res, time.Since(e.started))
			if *smoke {
				if err := spec.validate(pass, res); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
					return 1
				}
			}
			total.Correct = total.Correct && res.correct()
			total.Attempted += res.attempted
			total.Failed += res.failed
			for k, v := range res.metrics {
				if len(names) > 1 || len(passes) > 1 {
					k = name + ":" + k
				}
				total.Metrics[k] = v
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// printResult prints the human-readable table of one pass.
func printResult(name string, pass int, res *result, wall time.Duration) {
	kind := "end to end"
	if pass == 1 {
		kind = "per layer (traced pass)"
	}
	fmt.Printf("== %s: %s\n", name, kind)
	keys := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := res.metrics[k]
		line := fmt.Sprintf("  %-36s %14.6g %s", k, v.Value, v.Unit)
		if n, ok := res.samples[k]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	for _, n := range res.notes {
		fmt.Println("  note:", n)
	}
	for _, b := range res.budgets {
		b.print()
	}
	for _, c := range res.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Printf("  check %s %s: %s\n", status, c.name, c.detail)
	}
	fmt.Printf("  ops attempted %d, failed %d; pass took %.1f s\n", res.attempted, res.failed, wall.Seconds())
}
