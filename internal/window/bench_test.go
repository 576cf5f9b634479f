package window_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/sketch"
	"coresetclustering/internal/window"
)

// benchData is shared by the ingest and query benchmarks.
func benchData(n int) metric.Dataset {
	rng := rand.New(rand.NewSource(99))
	return window.ClusteredData(rng, n, 8, 10, 1)
}

// BenchmarkWindowIngest measures steady-state ingest throughput (points/op)
// into a count window, across window sizes. The window is pre-filled so
// coalescing and eviction run at their steady-state amortised cost.
//
// The drift row is shaped like a live ingest instead: d = 16, tau 320,
// W = 100 000, a linearly drifting mixture, every 256-point batch in its own
// array, filled with W points before timing. An op is one batch; it reports
// ns/point, and evals/point from a twin window on a CountingSpace fed the
// same batches untimed (the counter's atomic adds would distort the timing).
func BenchmarkWindowIngest(b *testing.B) {
	b.Run("drift,d=16,tau=320,W=100000", func(b *testing.B) {
		const (
			W     = 100_000
			batch = 256
		)
		cs := metric.NewCountingSpace(metric.EuclideanSpace)
		w, err := window.New(window.Config{Tau: 320, MaxCount: W})
		if err != nil {
			b.Fatal(err)
		}
		twin, err := window.New(window.Config{Space: cs, Tau: 320, MaxCount: W})
		if err != nil {
			b.Fatal(err)
		}
		observe := func(w *window.Window, pts metric.Dataset) {
			for _, p := range pts {
				if err := w.Observe(p, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		src := window.NewDriftSource(7, 16)
		for i := 0; i < W; i += batch {
			next := src.Next(batch)
			observe(w, next)
			observe(twin, next)
		}
		cs.Reset()
		var elapsed time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next := src.Next(batch)
			t0 := time.Now()
			observe(w, next)
			elapsed += time.Since(t0)
			observe(twin, next)
		}
		points := float64(b.N) * batch
		b.ReportMetric(float64(elapsed.Nanoseconds())/points, "ns/point")
		b.ReportMetric(float64(cs.Evaluations())/points, "evals/point")
	})
	for _, W := range []int64{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("W=%d", W), func(b *testing.B) {
			const tau = 64
			w, err := window.New(window.Config{Tau: tau, MaxCount: W})
			if err != nil {
				b.Fatal(err)
			}
			data := benchData(1 << 14)
			for i := int64(0); i < W; i++ {
				if err := w.Observe(data[i%int64(len(data))], 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Observe(data[i%len(data)], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWindowQuery measures query latency (union + GMM extraction)
// against a filled window, across window sizes. Each iteration observes one
// point first, as a live stream does between queries.
//
// The W rows cycle over one dataset, so their buckets' rows share one array
// whatever the layout. The drift row is shaped like a live ingest instead:
// d = 16, k 20, tau 320, W = 100 000, a linearly drifting mixture, every
// 256-point batch in its own array, filled with 2W points before timing.
func BenchmarkWindowQuery(b *testing.B) {
	b.Run("drift,d=16,k=20,tau=320,W=100000", func(b *testing.B) {
		const (
			W     = 100_000
			batch = 256
		)
		s, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: 20, Tau: 320, WindowSize: W})
		if err != nil {
			b.Fatal(err)
		}
		src := window.NewDriftSource(7, 16)
		for i := 0; i < 2*W; i += batch {
			for _, p := range src.Next(batch) {
				if err := s.Observe(p, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		var next metric.Dataset
		for range 64 {
			next = append(next, src.Next(batch)...)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Observe(next[i%len(next)], 0); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Centers(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, W := range []int64{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("W=%d", W), func(b *testing.B) {
			const (
				k   = 8
				tau = 64
			)
			s, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: k, Tau: tau, WindowSize: W})
			if err != nil {
				b.Fatal(err)
			}
			data := benchData(1 << 14)
			for i := int64(0); i < W; i++ {
				if err := s.Observe(data[i%int64(len(data))], 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Observe(data[i%len(data)], 0); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Centers(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWindowSnapshot measures full window snapshot round-trips,
// including the KCWN codec: state capture, EncodeWindow, DecodeWindow,
// restore.
func BenchmarkWindowSnapshot(b *testing.B) {
	const W = 10_000
	s, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: 8, Tau: 64, WindowSize: W})
	if err != nil {
		b.Fatal(err)
	}
	data := benchData(1 << 14)
	for i := 0; i < W; i++ {
		if err := s.Observe(data[i%len(data)], 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := clusterer.Restore(blob, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowRetained reports the heap a count window keeps alive after
// 2W points of a drifting 16-d stream fed in 256-point batches, each in its
// own array and dropped once observed: retained-KiB is runtime HeapAlloc
// after a GC, less the same figure before the window was built, and
// coords-KiB what the retained points' coordinates alone take. An op is one
// GC with the window live.
func BenchmarkWindowRetained(b *testing.B) {
	for _, W := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("W=%d", W), func(b *testing.B) {
			const (
				tau   = 320
				dim   = 16
				batch = 256
			)
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			base := ms.HeapAlloc
			w, err := window.New(window.Config{Tau: tau, MaxCount: int64(W)})
			if err != nil {
				b.Fatal(err)
			}
			src := window.NewDriftSource(7, dim)
			for i := 0; i < 2*W; i += batch {
				for _, p := range src.Next(batch) {
					if err := w.Observe(p, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runtime.GC()
				runtime.ReadMemStats(&ms)
			}
			b.StopTimer()
			b.ReportMetric(float64(ms.HeapAlloc-base)/1024, "retained-KiB")
			b.ReportMetric(float64(w.WorkingMemory()*dim*8)/1024, "coords-KiB")
			runtime.KeepAlive(w)
		})
	}
}
