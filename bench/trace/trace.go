// Package trace is the benchmark's own measurement kit: a percentile rule for
// latency samples and an in-memory span recorder whose spans are folded into
// per-layer busy and self times. Nothing here touches the program under test;
// spans are recorded by the harness around its calls into each layer.
package trace

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty.
func Percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailCandidates are tried highest first; a percentile is reported only when
// at least minBeyond samples lie beyond its rank.
var tailCandidates = []float64{99, 95, 90, 75}

const minBeyond = 10

// Summary is the reported shape of one latency sample set.
type Summary struct {
	N    int     // samples
	P50  float64 // median
	P75  float64 // upper quartile
	Tail float64 // value at TailP, or the maximum when TailP is 100
	// TailP is the highest of 99, 95, 90 and 75 with at least ten samples
	// beyond its nearest rank; 100 (the maximum) when even p75 has fewer.
	TailP float64
}

// Summarize sorts a copy of samples and applies the percentile rule. It
// returns the zero Summary for no samples.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := Summary{N: len(s), P50: Percentile(s, 50), P75: Percentile(s, 75), Tail: s[len(s)-1], TailP: 100}
	for _, p := range tailCandidates {
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if len(s)-rank >= minBeyond {
			out.Tail, out.TailP = s[rank-1], p
			break
		}
	}
	return out
}

// Parts returns how many consecutive parts SummarizeSegments cuts n samples
// into: as many as keep 40 samples in each (ten beyond a part's upper
// quartile), at most ten, at least one.
func Parts(n int) int { return max(1, min(10, n/40)) }

// MidMean returns the interquartile mean of values: sorted, a quarter
// (rounded down) dropped from each end, the rest averaged. Like a median it
// ignores a few outlying parts; unlike one it does not jump when periodic
// background work (a compaction, a router refresh) makes the parts bimodal
// and the middle falls between the two modes.
func MidMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// SummarizeSegments is the steadier form used for the reported latencies: it
// cuts the samples, in arrival order, into Parts(n) equal parts and returns
// the midmean of the parts' medians and of their upper quartiles. Tail, TailP
// and N are Summarize's over all the samples, for display: on a shared
// two-core machine a p95 moves by half when a neighbour takes CPU for a
// minute, so it is printed but not reported as a metric.
func SummarizeSegments(samples []float64) Summary {
	out := Summarize(samples)
	parts := Parts(len(samples))
	if parts == 1 {
		return out
	}
	per := len(samples) / parts
	var p50s, p75s []float64
	for i := 0; i < parts; i++ {
		part := Summarize(samples[i*per : (i+1)*per])
		p50s = append(p50s, part.P50)
		p75s = append(p75s, part.P75)
	}
	out.P50, out.P75 = MidMean(p50s), MidMean(p75s)
	return out
}

// Median returns the nearest-rank median of samples (0 for none).
func Median(samples []float64) float64 { return Summarize(samples).P50 }

// Span is one timed call into a layer. Parent is 0 for a root.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"` // "layer.operation"
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // offset from the recorder's start
	EndNS    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until WriteFile. It is safe for concurrent
// use; the zero value is not usable, call NewRecorder.
type Recorder struct {
	workload string
	now      func() time.Time
	origin   time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder stamping spans with workload. now is the
// clock (time.Now outside tests).
func NewRecorder(workload string, now func() time.Time) *Recorder {
	return &Recorder{workload: workload, now: now, origin: now()}
}

// Start opens a span under parent (0 for a root) and returns its ID.
func (r *Recorder) Start(parent int, name string) int {
	start := r.now().Sub(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Workload: r.workload, StartNS: start, EndNS: -1})
	return id
}

// End closes span id and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	end := r.now().Sub(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	sp.EndNS = end
	return time.Duration(end - sp.StartNS)
}

// Time runs fn inside a span and returns the span's duration.
func (r *Recorder) Time(parent int, name string, fn func(id int)) time.Duration {
	id := r.Start(parent, name)
	fn(id)
	return r.End(id)
}

// Spans returns a copy of the finished spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, sp := range r.spans {
		if sp.EndNS >= 0 {
			out = append(out, sp)
		}
	}
	return out
}

// WriteFile writes the finished spans to path as a JSON array.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LayerTime is one row of a folded budget, keyed by span name.
type LayerTime struct {
	Name  string
	Calls int
	Busy  time.Duration // sum of span durations
	Self  time.Duration // busy minus the part child spans cover
}

// Fold sums spans by name. A span's self time is its duration minus the
// union of the intervals its direct children cover within it, so overlapping
// (concurrent) children are not subtracted twice.
func Fold(spans []Span) []LayerTime {
	children := make(map[int][]Span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	byName := make(map[string]*LayerTime)
	var order []string
	for _, sp := range spans {
		lt, ok := byName[sp.Name]
		if !ok {
			lt = &LayerTime{Name: sp.Name}
			byName[sp.Name] = lt
			order = append(order, sp.Name)
		}
		dur := sp.EndNS - sp.StartNS
		lt.Calls++
		lt.Busy += time.Duration(dur)
		lt.Self += time.Duration(dur - covered(sp, children[sp.ID]))
	}
	out := make([]LayerTime, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi <= lo {
			continue
		}
		if curHi < curLo || lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}
