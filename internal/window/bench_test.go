package window_test

import (
	"fmt"
	"math/rand"
	"testing"

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
func BenchmarkWindowIngest(b *testing.B) {
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
func BenchmarkWindowQuery(b *testing.B) {
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
