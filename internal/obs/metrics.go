// Package obs is the daemon's zero-dependency observability core: a metrics
// registry (atomic counters, gauges and fixed-bucket histograms, rendered in
// the Prometheus text exposition format) plus a span tracer. Logging is the
// standard library's log/slog.
//
// The package exists so every layer of kcenterd — HTTP handlers, the
// persistence engine, the stream publish path — reports into one contract
// that later performance and distribution work can be measured against,
// without pulling a client library into a dependency-free module.
//
// Recording is wait-free: counters and gauges are single atomics, a histogram
// observation is two atomic adds plus a CAS loop on the sum, and none of them
// ever takes a lock held across I/O. Registration and label-child lookup use
// short internal mutexes, so handlers that resolve a labelled child per
// request pay a map lookup, never a stall behind a scrape; a scrape reads the
// atomics without stopping writers. That is what keeps GET /metrics answerable
// while a stream's ingest mutex is held.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is ready to
// use, but counters are normally created through a Registry so they render
// on scrapes.
type Counter struct {
	v atomic.Int64
}

// Add adds delta, which must be non-negative (counters only go up; a negative
// delta is ignored rather than corrupting the series).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// value returns the current count.
func (c *Counter) value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative deltas decrease the gauge).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// value returns the current value.
func (g *Gauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefDurationBuckets is the default latency histogram layout: exponential
// upper bounds from 100µs to 10s (in seconds, the Prometheus convention for
// duration histograms). Operations faster than 100µs land in the first
// bucket, slower than 10s in the implicit +Inf bucket.
var DefDurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets. Observing is wait-free
// (two atomic increments and a CAS-add on the sum); the bucket layout is
// immutable after creation.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; the +Inf bucket is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefDurationBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bounds must be finite")
		}
		if i > 0 && bs[i-1] == b {
			panic("obs: duplicate histogram bound")
		}
	}
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Branchless-ish bucket search: bounds are few (tens), so a binary search
	// is plenty; sort.SearchFloat64s returns the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state. Buckets
// are non-cumulative counts aligned with Bounds; the last entry of Counts is
// the implicit +Inf bucket.
type HistogramSnapshot struct {
	Count  uint64
	Sum    float64
	Bounds []float64
	Counts []uint64
}

// snapshot copies the histogram's counters. Concurrent observers may land
// between the individual loads, so the copy is approximately — not
// transactionally — consistent, which is the usual monitoring contract.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// metricKind discriminates families in the registry.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with a fixed label schema and (for histograms) a
// fixed bucket layout; children are the per-label-value instances.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64

	mu       sync.Mutex
	children map[string]any // joined label values -> *Counter/*Gauge/*Histogram
	keys     map[string][]string
}

// child returns (creating if needed) the instance for the given label values.
func (f *family) child(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	var c any
	switch f.kind {
	case kindCounter:
		c = &Counter{}
	case kindGauge:
		c = &Gauge{}
	case kindHistogram:
		c = newHistogram(f.bounds)
	}
	f.children[key] = c
	f.keys[key] = append([]string(nil), values...)
	return c
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).(*Counter) }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).(*Gauge) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values (created on first
// use).
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).(*Histogram) }

// Registry holds named metric families and renders them in the Prometheus
// text exposition format. Metric creation is idempotent: asking again for the
// same name returns the existing family (and panics if the kind or label
// schema differs — that is a programming error, not a runtime condition).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as a different kind or schema", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		bounds:   bounds,
		children: make(map[string]any),
		keys:     make(map[string][]string),
	}
	r.families[name] = f
	return f
}

// Counter returns the unlabelled counter with the given name, creating it on
// first use. An unlabelled metric always renders (at 0 before the first
// increment), so required series exist from boot.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).child(nil).(*Counter)
}

// CounterVec returns the labelled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, labels, nil)}
}

// Gauge returns the unlabelled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).child(nil).(*Gauge)
}

// GaugeVec returns the labelled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, labels, nil)}
}

// Histogram returns the unlabelled histogram with the given name. bounds are
// the bucket upper bounds (nil = DefDurationBuckets); they are fixed on first
// registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, kindHistogram, nil, bounds).child(nil).(*Histogram)
}

// HistogramVec returns the labelled histogram family with the given name.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, labels, bounds)}
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for the given schema/values, with extra
// appended last (used for the histogram "le" label). Empty schema and extra
// render as "".
func labelString(labels, values []string, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if len(labels) > 0 || i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extra[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): families sorted by name, children sorted by label values,
// histogram buckets cumulative with the trailing +Inf bucket, _sum and
// _count. Rendering reads the atomics without stopping writers, so a scrape
// never blocks recording.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]any, len(keys))
		values := make([][]string, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
			values[i] = f.keys[k]
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue // a Vec with no children yet has nothing to expose
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for i, c := range children {
			ls := labelString(f.labels, values[i])
			switch m := c.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, m.value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ls, formatFloat(m.value()))
			case *Histogram:
				s := m.snapshot()
				cum := uint64(0)
				for j, bound := range s.Bounds {
					cum += s.Counts[j]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values[i], "le", formatFloat(bound)), cum)
				}
				cum += s.Counts[len(s.Bounds)]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values[i], "le", "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, ls, formatFloat(s.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, ls, s.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
