package mapreduce

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"coresetclustering/internal/metric"
)

// TestPerPartitionWorkers checks the worker-budget split of the first round.
func TestPerPartitionWorkers(t *testing.T) {
	tests := []struct {
		name        string
		cfg         ExecConfig
		parts, want int
	}{
		{"even split", ExecConfig{Parallelism: 4, Workers: 8}, 8, 2},
		{"floor", ExecConfig{Parallelism: 3, Workers: 8}, 8, 2},
		{"never below one", ExecConfig{Parallelism: 16, Workers: 2}, 32, 1},
		{"fewer parts than parallelism", ExecConfig{Parallelism: 8, Workers: 8}, 2, 4},
		{"single partition gets everything", ExecConfig{Parallelism: 8, Workers: 8}, 1, 8},
		{"sequential budget", ExecConfig{Parallelism: 4, Workers: 1}, 4, 1},
	}
	for _, tc := range tests {
		if got := tc.cfg.PerPartitionWorkers(tc.parts); got != tc.want {
			t.Errorf("%s: PerPartitionWorkers(%d) = %d, want %d", tc.name, tc.parts, got, tc.want)
		}
	}
	// Auto budget: Workers <= 0 defaults to the engine's CPU count.
	auto := ExecConfig{Parallelism: 1}.PerPartitionWorkers(1)
	if auto != runtime.GOMAXPROCS(0) {
		t.Errorf("auto budget = %d, want %d", auto, runtime.GOMAXPROCS(0))
	}
}

// TestDefaultParallelismFollowsGOMAXPROCS: "as many partitions at once as
// there are CPUs" means the CPUs the process may use, the number the distance
// engine and PerPartitionWorkers divide by — not the host's. With GOMAXPROCS
// at 1 below a larger host, round 1 used to start NumCPU partitions at once,
// each told it had the only worker, and report a Workers figure that never
// ran.
func TestDefaultParallelismFollowsGOMAXPROCS(t *testing.T) {
	parts := make([]metric.Dataset, 12)
	for i := range parts {
		parts[i] = metric.Dataset{{float64(i)}}
	}
	run := func() ([]float64, ExecStats, int32) {
		var running, peak atomic.Int32
		out, stats, err := MapPartitions(ExecConfig{}, parts, func(i int, part metric.Dataset) (float64, error) {
			now := running.Add(1)
			for old := peak.Load(); now > old && !peak.CompareAndSwap(old, now); old = peak.Load() {
			}
			runtime.Gosched()
			running.Add(-1)
			return 2 * part[0][0], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, stats, peak.Load()
	}
	want, stats, _ := run()
	if stats.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default Workers = %d, want GOMAXPROCS = %d", stats.Workers, runtime.GOMAXPROCS(0))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got, stats, peak := run()
	if stats.Workers != 1 || peak != 1 {
		t.Errorf("GOMAXPROCS=1: Workers = %d with %d partitions running at once, want 1 and 1", stats.Workers, peak)
	}
	if per := (ExecConfig{}).PerPartitionWorkers(len(parts)); per != 1 {
		t.Errorf("GOMAXPROCS=1: %d workers per partition, want 1", per)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("GOMAXPROCS=1: result %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPartitionOrigins: every partitioner of the package reports where its
// parts' points came from — nil for the uniform split, whose parts are
// consecutive ranges — and Partition returns the same parts.
func TestPartitionOrigins(t *testing.T) {
	points := randomDataset(rand.New(rand.NewSource(8)), 101, 2)
	for _, p := range []OriginPartitioner{
		UniformPartitioner{},
		RandomPartitioner{},
		AdversarialPartitioner{Targeted: []int{3, 50, 99, 100}},
	} {
		for _, ell := range []int{1, 4, 7, 150} {
			parts, origins, err := p.PartitionOrigins(points, ell)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := p.Partition(points, ell)
			if err != nil || len(plain) != len(parts) {
				t.Fatalf("%s ell=%d: Partition gives %d parts (%v), PartitionOrigins %d", p.Name(), ell, len(plain), err, len(parts))
			}
			if (origins == nil) != (p.Name() == "uniform") {
				t.Fatalf("%s ell=%d: origins nil = %v", p.Name(), ell, origins == nil)
			}
			seen, next := make([]bool, len(points)), 0
			for i, part := range parts {
				if len(plain[i]) != len(part) {
					t.Fatalf("%s ell=%d: part %d has %d points, Partition gave %d", p.Name(), ell, i, len(part), len(plain[i]))
				}
				for j, q := range part {
					at := next
					if origins != nil {
						at = origins[i][j]
					}
					next++
					if seen[at] || &points[at][0] != &q[0] || &plain[i][j][0] != &q[0] {
						t.Fatalf("%s ell=%d: parts[%d][%d] is not input point %d, or that point was placed twice", p.Name(), ell, i, j, at)
					}
					seen[at] = true
				}
			}
			if next != len(points) {
				t.Fatalf("%s ell=%d: %d points placed, want %d", p.Name(), ell, next, len(points))
			}
		}
	}
}
