package window

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/sketch"
)

// clusteredData scatters n points around `blobs` well-separated anchors.
func clusteredData(rng *rand.Rand, n, dim, blobs int, spread float64) metric.Dataset {
	out := make(metric.Dataset, n)
	for i := range out {
		p := make(metric.Point, dim)
		anchor := float64(rng.Intn(blobs)) * 100
		for j := range p {
			p[j] = anchor + rng.NormFloat64()*spread
		}
		out[i] = p
	}
	return out
}

func mustWindow(t *testing.T, cfg Config) *Window {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func feedCount(t *testing.T, w *Window, pts metric.Dataset) {
	t.Helper()
	for _, p := range pts {
		if err := w.Observe(p, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Tau: 0, MaxCount: 10},           // tau < 1
		{Tau: 4},                         // no bound at all
		{Tau: 4, MaxCount: -1},           // negative count
		{Tau: 4, MaxAge: -1},             // negative age
		{Tau: 4, MaxCount: 10, Chi: -1},  // negative chi
		{Tau: 4, MaxCount: 10, Base: -2}, // negative base
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
	w := mustWindow(t, Config{Tau: 8, MaxCount: 100})
	if w.chi != DefaultChi {
		t.Errorf("default chi = %d, want %d", w.chi, DefaultChi)
	}
	if w.base != 2 { // tau/4
		t.Errorf("default base = %d, want 2", w.base)
	}
}

func TestObserveValidation(t *testing.T) {
	w := mustWindow(t, Config{Tau: 8, MaxCount: 100})
	if err := w.Observe(nil, 0); err == nil {
		t.Error("nil point accepted")
	}
	if err := w.Observe(metric.Point{math.NaN()}, 0); err == nil {
		t.Error("NaN point accepted")
	}
	if err := w.Observe(metric.Point{}, 0); err == nil {
		t.Error("zero-dimensional point accepted")
	}
	if err := w.Observe(metric.Point{1, 2}, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.Observe(metric.Point{1, 2, 3}, 5); !errors.Is(err, metric.ErrDimensionMismatch) {
		t.Errorf("dimension mismatch error = %v", err)
	}
	if err := w.Observe(metric.Point{3, 4}, 4); !errors.Is(err, ErrTimestampOrder) {
		t.Errorf("decreasing timestamp error = %v", err)
	}
	if err := w.Observe(metric.Point{3, 4}, -1); !errors.Is(err, ErrNegativeTimestamp) {
		t.Errorf("negative timestamp error = %v", err)
	}
	// Rejected points must not have perturbed the state.
	if w.Observed() != 1 {
		t.Errorf("observed = %d after one valid point, want 1", w.Observed())
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCountWindowEviction(t *testing.T) {
	const (
		W   = 200
		tau = 16
		n   = 2000
	)
	rng := rand.New(rand.NewSource(1))
	w := mustWindow(t, Config{Tau: tau, MaxCount: W})
	data := clusteredData(rng, n, 3, 4, 1)
	for i, p := range data {
		if err := w.Observe(p, 0); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			if err := w.CheckInvariants(); err != nil {
				t.Fatalf("after %d points: %v", i+1, err)
			}
		}
	}
	if w.Observed() != n {
		t.Errorf("observed = %d, want %d", w.Observed(), n)
	}
	start, end := w.LiveRange()
	if end != n {
		t.Errorf("live range ends at %d, want %d", end, n)
	}
	// The live set must cover the window...
	if covered := end - start; covered < W {
		t.Errorf("live range covers %d points, window is %d", covered, W)
	}
	// ...and overshoot it by at most the span of the oldest live bucket.
	buckets := w.Buckets()
	if got, bound := end-start, int64(W)+buckets[0].Count; got > bound {
		t.Errorf("live range covers %d points, want <= window + oldest bucket = %d", got, bound)
	}
	if w.LivePoints() != end-start {
		t.Errorf("LivePoints = %d, want %d", w.LivePoints(), end-start)
	}
}

func TestDurationWindowEvictionAndAdvance(t *testing.T) {
	w := mustWindow(t, Config{Tau: 8, MaxAge: 100, Base: 2})
	// Ten points per tick-century, then a jump.
	for ts := int64(0); ts < 300; ts += 10 {
		if err := w.Observe(metric.Point{float64(ts), 1}, ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Window is (190, 290]: points at ts <= 190 are evictable; whole-bucket
	// eviction means the live range covers at least the last 10 points.
	if start, end := w.LiveRange(); end-start < 10 {
		t.Errorf("live range [%d,%d) too small for the last 100 ticks", start, end)
	}
	// Advancing far beyond the newest point evicts everything, including the
	// open bucket.
	if err := w.Advance(10_000); err != nil {
		t.Fatal(err)
	}
	if w.LiveBuckets() != 0 || w.LivePoints() != 0 {
		t.Errorf("after advancing past everything: %d buckets, %d points live", w.LiveBuckets(), w.LivePoints())
	}
	if _, err := w.Coreset(); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("Coreset on empty window = %v, want ErrEmptyWindow", err)
	}
	if err := w.Advance(9_999); !errors.Is(err, ErrTimestampOrder) {
		t.Errorf("backwards Advance error = %v", err)
	}
	// The stream keeps working after total eviction.
	if err := w.Observe(metric.Point{1, 1}, 10_001); err != nil {
		t.Fatal(err)
	}
	if w.LivePoints() != 1 {
		t.Errorf("live points = %d after re-observing, want 1", w.LivePoints())
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestMemoryBound asserts the O(tau * log W) working-memory contract: the
// bucket count stays within chi per level over ~log2(W/base) levels, and
// every bucket retains at most tau+1 points.
func TestMemoryBound(t *testing.T) {
	const (
		W   = 4096
		tau = 24
		n   = 40_000
	)
	rng := rand.New(rand.NewSource(2))
	w := mustWindow(t, Config{Tau: tau, MaxCount: W})
	data := clusteredData(rng, n, 4, 6, 1)
	levels := int(math.Log2(float64(W)/float64(w.base))) + 2
	maxBuckets := w.chi*levels + 1 // +1 for the open bucket
	for i, p := range data {
		if err := w.Observe(p, 0); err != nil {
			t.Fatal(err)
		}
		if i%512 == 0 || i == len(data)-1 {
			if got := w.LiveBuckets(); got > maxBuckets {
				t.Fatalf("after %d points: %d live buckets, bound chi*(log2(W/base)+2)+1 = %d", i+1, got, maxBuckets)
			}
			// +1 inside the factor: a doubling state briefly holds tau+1
			// points; the extra term covers the memoised query merge.
			if got, bound := w.WorkingMemory(), (tau+1)*(maxBuckets+1); got > bound {
				t.Fatalf("after %d points: working memory %d exceeds bound %d", i+1, got, bound)
			}
		}
	}
}

// TestCoalesceStructure pins the exponential-histogram shape for the
// smallest granularity: base=1, chi=2.
func TestCoalesceStructure(t *testing.T) {
	w := mustWindow(t, Config{Tau: 4, MaxCount: 1 << 20, Chi: 2, Base: 1})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if err := w.Observe(metric.Point{rng.Float64(), rng.Float64()}, 0); err != nil {
			t.Fatal(err)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatalf("after %d points: %v", i+1, err)
		}
	}
	// 100 points in buckets of sizes 2^l with at most 2 per level needs at
	// least log2(100) levels and at most 2*ceil(log2(100))+... buckets.
	if got := w.LiveBuckets(); got > 2*8 {
		t.Errorf("%d buckets for 100 points at chi=2, base=1", got)
	}
}

// TestCoresetCovers checks the window coverage invariant: every live point
// lies within CoverageBound of the query-time coreset union, and the union's
// weights account for every live point exactly once.
func TestCoresetCovers(t *testing.T) {
	const W = 300
	rng := rand.New(rand.NewSource(4))
	w := mustWindow(t, Config{Tau: 32, MaxCount: W})
	data := clusteredData(rng, 1200, 3, 5, 1)
	feedCount(t, w, data)
	cs, err := w.Coreset()
	if err != nil {
		t.Fatal(err)
	}
	start, end := w.LiveRange()
	pts := cs.Points()
	bound := w.CoverageBound()
	for i := start; i < end; i++ {
		if d, _ := metric.DistanceToSet(metric.Euclidean, data[i], pts); d > bound+1e-9 {
			t.Fatalf("live point %d at distance %v from the coreset union, bound %v", i, d, bound)
		}
	}
	if got := cs.TotalWeight(); got != end-start {
		t.Errorf("coreset union accounts for %d points, live range covers %d", got, end-start)
	}
}

// TestCoresetHeadersAreTheCallers checks the query contract: every Coreset
// call hands out fresh headers over the retained coordinates, so a caller
// rewriting weights (or order) perturbs neither the window nor the next
// query, and Points is the same union without the weights.
func TestCoresetHeadersAreTheCallers(t *testing.T) {
	w := mustWindow(t, Config{Tau: 8, MaxCount: 50})
	feedCount(t, w, clusteredData(rand.New(rand.NewSource(5)), 60, 2, 3, 1))
	m1, err := w.Coreset()
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		m1[i].W = -7
	}
	m1[0], m1[len(m1)-1] = m1[len(m1)-1], m1[0]
	m2, _ := w.Coreset()
	if &m1[0] == &m2[0] {
		t.Fatal("two queries share one header slice")
	}
	if m2.TotalWeight() != w.LivePoints() {
		t.Errorf("union weight %d != live points %d after a caller rewrote the previous union", m2.TotalWeight(), w.LivePoints())
	}
	if err := w.CheckInvariants(); err != nil {
		t.Error(err)
	}
	pts, err := w.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(m2) {
		t.Fatalf("Points has %d entries, Coreset %d", len(pts), len(m2))
	}
	for i := range pts {
		if &pts[i][0] != &m2[i].P[0] {
			t.Fatalf("entry %d: Points and Coreset disagree (or copied coordinates)", i)
		}
	}
	if err := w.Observe(metric.Point{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	m3, _ := w.Coreset()
	if m3.TotalWeight() != w.LivePoints() {
		t.Errorf("union weight %d != live points %d", m3.TotalWeight(), w.LivePoints())
	}
}

// TestWorkingMemoryIsAFunctionOfState: the retained-point count does not
// depend on whether the window has been queried, and a clone and a
// snapshot -> restore copy report what their source reports.
func TestWorkingMemoryIsAFunctionOfState(t *testing.T) {
	w := mustWindow(t, Config{Tau: 16, MaxCount: 400})
	feedCount(t, w, clusteredData(rand.New(rand.NewSource(6)), 700, 3, 4, 1))
	before := w.WorkingMemory()
	if _, err := w.Coreset(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Points(); err != nil {
		t.Fatal(err)
	}
	if got := w.WorkingMemory(); got != before {
		t.Errorf("working memory %d before a query, %d after", before, got)
	}
	if got := w.Clone().WorkingMemory(); got != before {
		t.Errorf("clone reports %d retained points, source %d", got, before)
	}
	restored, err := FromSketch(w.Sketch(sketch.KindKCenter, 1, 4, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.WorkingMemory(); got != before {
		t.Errorf("restored window reports %d retained points, source %d", got, before)
	}
}

func assertSameDataset(t *testing.T, a, b metric.Dataset, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d points", what, len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("%s: point %d differs: %v vs %v", what, i, a[i], b[i])
		}
	}
}

func TestEvictionCounters(t *testing.T) {
	const (
		W   = 100
		tau = 8
		n   = 1500
	)
	rng := rand.New(rand.NewSource(11))
	w := mustWindow(t, Config{Tau: tau, MaxCount: W})
	feedCount(t, w, clusteredData(rng, n, 3, 4, 1))

	// Every observed point is either live or inside an evicted bucket.
	if got := w.EvictedPoints() + w.LivePoints(); got != w.Observed() {
		t.Fatalf("evicted(%d) + live(%d) = %d, want observed %d",
			w.EvictedPoints(), w.LivePoints(), got, w.Observed())
	}
	if w.EvictedBuckets() == 0 || w.EvictedPoints() == 0 {
		t.Fatalf("window of %d over %d points must have evicted (buckets=%d points=%d)",
			W, n, w.EvictedBuckets(), w.EvictedPoints())
	}

	// Clone carries the lifetime counters, and diverges independently.
	cp := w.Clone()
	if cp.EvictedBuckets() != w.EvictedBuckets() || cp.EvictedPoints() != w.EvictedPoints() {
		t.Fatal("Clone must copy eviction counters")
	}
	before := w.EvictedPoints()
	feedCount(t, w, clusteredData(rng, 500, 3, 4, 1))
	if w.EvictedPoints() <= before {
		t.Fatal("continued ingest must keep evicting")
	}
	if cp.EvictedPoints() != before {
		t.Fatal("clone counters must not move with the original")
	}
}

func TestEvictionCountersDurationWindow(t *testing.T) {
	w := mustWindow(t, Config{Tau: 4, MaxAge: 10, Base: 1})
	for ts := int64(0); ts < 100; ts += 2 {
		if err := w.Observe(metric.Point{float64(ts)}, ts); err != nil {
			t.Fatal(err)
		}
	}
	// Advance far past the newest point: everything, open bucket included,
	// leaves the window.
	if err := w.Advance(1000); err != nil {
		t.Fatal(err)
	}
	if w.LivePoints() != 0 {
		t.Fatalf("live = %d after advancing past everything", w.LivePoints())
	}
	if got := w.EvictedPoints(); got != w.Observed() {
		t.Fatalf("evicted %d points, want all %d observed", got, w.Observed())
	}
}
