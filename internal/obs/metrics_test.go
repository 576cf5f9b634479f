package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Add(1)
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "help"); again != c {
		t.Fatal("re-registering the same counter must return the same instance")
	}

	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestVecChildrenAreMemoised(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "help", "route", "status")
	a := v.With("/x", "200")
	b := v.With("/x", "200")
	if a != b {
		t.Fatal("same label values must resolve to the same child")
	}
	v.With("/x", "500").Add(1)
	if a.Value() != 0 {
		t.Fatal("distinct label values must not share a child")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "help", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := 0.5 + 1 + 1.5 + 3 + 100; math.Abs(s.Sum-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	// Upper bounds are inclusive: 1 lands in the le=1 bucket.
	if got, want := s.Counts, []uint64{2, 1, 1, 1}; len(got) != len(want) {
		t.Fatalf("bucket layout %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
			}
		}
	}

	// Quantile interpolation: with counts [2,1,1,1] over bounds [1,2,4], the
	// median rank 2.5 lands halfway through the second bucket (1..2] -> 1.5.
	if p50 := s.P50(); math.Abs(p50-1.5) > 1e-9 {
		t.Fatalf("p50 = %v, want 1.5", p50)
	}
	// Rank 4.95 lands in the +Inf bucket, clamped to the top finite bound.
	if p99 := s.quantile(0.99); p99 != 4 {
		t.Fatalf("p99 = %v, want 4 (clamped)", p99)
	}

	empty := r.Histogram("lat2", "help", []float64{1}).Snapshot()
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
}

func TestHistogramQuantileUniform(t *testing.T) {
	h := newHistogram([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 1000.0)
	}
	s := h.Snapshot()
	if p50 := s.P50(); math.Abs(p50-0.5) > 0.05 {
		t.Fatalf("uniform p50 = %v, want ~0.5", p50)
	}
	if p99 := s.quantile(0.99); math.Abs(p99-0.99) > 0.05 {
		t.Fatalf("uniform p99 = %v, want ~0.99", p99)
	}
}

// TestHistogramConcurrent drives one histogram (and counters) from many
// goroutines; under -race this is the recording-is-safe proof, and the final
// counts must be exact.
func TestHistogramConcurrent(t *testing.T) {
	const workers = 8
	const perWorker = 5000
	r := NewRegistry()
	h := r.Histogram("lat", "help", DefDurationBuckets)
	c := r.Counter("ops_total", "help")
	vec := r.CounterVec("by_route", "help", "route")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := string(rune('a' + w%2))
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%100) / 1000.0)
				c.Add(1)
				vec.With(route).Add(1)
			}
		}(w)
	}
	// A concurrent scraper must never block recording (or trip -race).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", s.Count, workers*perWorker)
	}
	total := uint64(0)
	for _, n := range s.Counts {
		total += n
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
	wantSum := float64(workers) * func() float64 {
		sum := 0.0
		for i := 0; i < perWorker; i++ {
			sum += float64(i%100) / 1000.0
		}
		return sum
	}()
	if math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	if a, b := vec.With("a").Value(), vec.With("b").Value(); a+b != workers*perWorker {
		t.Fatalf("labelled counters %d+%d, want %d", a, b, workers*perWorker)
	}
}

// TestPrometheusGolden pins the exact exposition format: sorted families,
// sorted children, cumulative buckets, +Inf, _sum/_count, escaping.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last_total", "sorts last").Add(3)
	g := r.Gauge("a_gauge", "first by name")
	g.Set(2.5)
	v := r.CounterVec("reqs_total", "with labels", "route", "status")
	v.With("/streams/{name}/points", "200").Add(2)
	v.With("/merge", "400").Add(1)
	esc := r.GaugeVec("esc", `help with \ backslash`, "v")
	esc.With("a\"b\\c\nd").Set(1)
	// Powers of two keep the sum exactly representable, so the rendered
	// _sum is deterministic.
	h := r.Histogram("lat_seconds", "latency", []float64{0.25, 1})
	h.Observe(0.125)
	h.Observe(0.125)
	h.Observe(0.5)
	h.Observe(4)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_gauge first by name
# TYPE a_gauge gauge
a_gauge 2.5
# HELP esc help with \\ backslash
# TYPE esc gauge
esc{v="a\"b\\c\nd"} 1
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.25"} 2
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 4.75
lat_seconds_count 4
# HELP reqs_total with labels
# TYPE reqs_total counter
reqs_total{route="/merge",status="400"} 1
reqs_total{route="/streams/{name}/points",status="200"} 2
# HELP zz_last_total sorts last
# TYPE zz_last_total counter
zz_last_total 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestObserveDuration(t *testing.T) {
	h := newHistogram([]float64{0.5, 2})
	h.ObserveDuration(1 * time.Second)
	s := h.Snapshot()
	if s.Counts[1] != 1 {
		t.Fatalf("1s must land in the (0.5, 2] bucket: %v", s.Counts)
	}
}

func TestEmptyVecNotRendered(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("never_used_total", "no children", "l")
	r.Counter("used_total", "zero but unlabelled")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "never_used_total") {
		t.Fatal("childless vec must not render")
	}
	if !strings.Contains(out, "used_total 0") {
		t.Fatal("unlabelled metrics must render at 0 so required series exist from boot")
	}
}
