package sketch

import (
	"fmt"
	"testing"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/streaming"
)

// benchSketch builds a realistic initialized sketch: tau weighted centers of
// the given dimensionality from a clustered stream.
func benchSketch(b *testing.B, n, dim, k, tau int, seed int64) *Sketch {
	b.Helper()
	d, err := streaming.NewDoublingIn(metric.EuclideanSpace, tau)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range clusteredBenchData(n, dim, seed) {
		if err := d.Process(p); err != nil {
			b.Fatal(err)
		}
	}
	return FromState(KindKCenter, 1, k, 0, 0, d.State())
}

func clusteredBenchData(n, dim int, seed int64) metric.Dataset {
	// Deterministic LCG so benchmarks need no rand import bookkeeping.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	ds := make(metric.Dataset, n)
	for i := range ds {
		p := make(metric.Point, dim)
		blob := float64(i%10) * 50
		for j := range p {
			p[j] = blob + next()
		}
		ds[i] = p
	}
	return ds
}

func BenchmarkSketchEncode(b *testing.B) {
	sk := benchSketch(b, 20000, 16, 50, 400, 1)
	enc, err := Encode(sk)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(sk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchDecode(b *testing.B) {
	enc, err := Encode(benchSketch(b, 20000, 16, 50, 400, 2))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchMerge measures the whole merge chain (State -> Restore ->
// MergeDoublings -> State) at a small budget over four shards and at the
// daemon's budget over two (what a router does per refresh).
func BenchmarkSketchMerge(b *testing.B) {
	for _, c := range []struct{ tau, shards, n int }{{400, 4, 10000}, {2048, 2, 20000}} {
		b.Run(fmt.Sprintf("budget=%d", c.tau), func(b *testing.B) {
			shards := make([]*Sketch, c.shards)
			for i := range shards {
				shards[i] = benchSketch(b, c.n, 16, 50, c.tau, int64(i+10))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Merge(shards...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
