package persist

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coresetclustering/internal/benchgate"
)

// benchLog opens a store with compaction off under opts in a temporary
// directory, closed when b ends, and creates one stream in it.
func benchLog(b *testing.B, opts Options) *Log {
	opts.CompactEvery = -1
	s, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	l, err := s.Create("bench", Meta{K: 4, Budget: 32, Space: "euclidean"})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkPersistAppend measures WAL append throughput (64-point batches of
// dimension 8) under each fsync mode. FsyncAlways is bound by the device;
// interval/never measure the codec + write path itself.
func BenchmarkPersistAppend(b *testing.B) {
	batch := testBatch(64, 8, 1)
	for _, mode := range []FsyncMode{FsyncNever, FsyncInterval, FsyncAlways} {
		b.Run(mode.String(), func(b *testing.B) {
			l := benchLog(b, Options{Fsync: mode})
			b.SetBytes(int64(64 * 8 * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := appendBatch(l, batch, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestWALAppend measures concurrent append throughput under each
// fsync mode: 64 concurrent appenders (per GOMAXPROCS) model a loaded daemon's
// parallel ingest handlers. Under FsyncAlways each run also reports how many
// appends one fsync covered on average (appends/fsync, from GroupCommitDone);
// BenchmarkGateGroupCommit gates what that coalescing buys.
func BenchmarkIngestWALAppend(b *testing.B) {
	batch := testBatch(16, 8, 1)
	for _, mode := range []FsyncMode{FsyncNever, FsyncInterval, FsyncAlways} {
		b.Run("fsync="+mode.String(), func(b *testing.B) {
			var groups, grouped atomic.Int64
			l := benchLog(b, Options{Fsync: mode, Hooks: Hooks{
				GroupCommitDone: func(n int, _ time.Duration) {
					groups.Add(1)
					grouped.Add(int64(n))
				},
			}})
			b.SetBytes(int64(16 * 8 * 8))
			b.SetParallelism(64)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := appendBatch(l, batch, nil); err != nil {
						b.Error(err)
						return
					}
				}
			})
			if g := groups.Load(); g > 0 {
				b.ReportMetric(float64(grouped.Load())/float64(g), "appends/fsync")
			}
		})
	}
}

// BenchmarkGateGroupCommit is the group-commit gate (protocol in
// internal/benchgate): a burst of 64 concurrent appends under fsync=always
// must finish at least 5x sooner than the same burst serialised behind a
// benchmark-local mutex, where each append waits for its own fsync, because
// coalescing concurrent callers into shared fsyncs is the whole win.
func BenchmarkGateGroupCommit(b *testing.B) {
	l := benchLog(b, Options{Fsync: FsyncAlways})
	batch := testBatch(16, 8, 1)
	burst := func(serialise bool) func() {
		var mu sync.Mutex
		return func() {
			var wg sync.WaitGroup
			for range 64 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if serialise {
						mu.Lock()
						defer mu.Unlock()
					}
					if err := appendBatch(l, batch, nil); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	}
	benchgate.MedianRatio(b, "serialised/grouped", 5, math.Inf(1), burst(true), burst(false))
}

// BenchmarkPersistCreateRemove measures the latency of the two namespace
// operations a stream's life begins and ends with under FsyncAlways: Create
// (directory, WAL image, store-root sync) and Remove (tombstone rename,
// store-root sync, removal), reported separately as create-us and remove-us.
func BenchmarkPersistCreateRemove(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	meta := Meta{K: 4, Budget: 32, Space: "euclidean"}
	var create, remove time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		l, err := s.Create("bench", meta)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if err := l.Remove(); err != nil {
			b.Fatal(err)
		}
		create += t1.Sub(t0)
		remove += time.Since(t1)
	}
	b.ReportMetric(float64(create.Microseconds())/float64(b.N), "create-us")
	b.ReportMetric(float64(remove.Microseconds())/float64(b.N), "remove-us")
}

// BenchmarkPersistRecovery measures boot-time recovery (decode + truncate +
// reopen) as a function of log length: replay cost must stay linear and
// cheap, because it bounds daemon restart latency.
func BenchmarkPersistRecovery(b *testing.B) {
	for _, records := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{Fsync: FsyncNever, CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			l, err := s.Create("bench", Meta{K: 4, Budget: 32, Space: "euclidean"})
			if err != nil {
				b.Fatal(err)
			}
			batch := testBatch(16, 8, 1)
			for i := 0; i < records; i++ {
				if err := appendBatch(l, batch, nil); err != nil {
					b.Fatal(err)
				}
			}
			dir := s.Dir()
			s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s2, err := Open(dir, Options{Fsync: FsyncNever})
				if err != nil {
					b.Fatal(err)
				}
				recs, err := s2.Recover()
				if err != nil {
					b.Fatal(err)
				}
				if len(recs) != 1 || recs[0].Err != nil || len(recs[0].Tail) != records {
					b.Fatalf("recovered %d streams, tail %d", len(recs), len(recs[0].Tail))
				}
				s2.Close()
			}
		})
	}
}

// BenchmarkPersistCompact measures snapshot compaction latency (snapshot
// write + atomic rename + log reset) for a representative sketch size.
func BenchmarkPersistCompact(b *testing.B) {
	l := benchLog(b, Options{Fsync: FsyncNever})
	sketch := make([]byte, 64<<10)
	for i := range sketch {
		sketch[i] = byte(i)
	}
	batch := testBatch(16, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := appendBatch(l, batch, nil); err != nil {
			b.Fatal(err)
		}
		if err := l.Compact(sketch); err != nil {
			b.Fatal(err)
		}
	}
}
