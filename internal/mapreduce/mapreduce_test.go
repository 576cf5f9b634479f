package mapreduce

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"coresetclustering/internal/metric"
)

func randomDataset(rng *rand.Rand, n, dim int) metric.Dataset {
	ds := make(metric.Dataset, n)
	for i := range ds {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		ds[i] = p
	}
	return ds
}

func TestSplitIndexes(t *testing.T) {
	tests := []struct {
		n, parts int
		want     int // number of ranges
	}{
		{10, 3, 3},
		{10, 10, 10},
		{3, 10, 3},
		{0, 4, 0},
		{5, 0, 1},
		{7, -2, 1},
	}
	for _, tt := range tests {
		got := splitIndexes(tt.n, tt.parts)
		if len(got) != tt.want {
			t.Errorf("splitIndexes(%d,%d) ranges = %d, want %d", tt.n, tt.parts, len(got), tt.want)
		}
		// Ranges must cover [0,n) contiguously.
		covered := 0
		prev := 0
		for _, r := range got {
			if r[0] != prev {
				t.Errorf("splitIndexes(%d,%d) gap at %d", tt.n, tt.parts, r[0])
			}
			covered += r[1] - r[0]
			prev = r[1]
		}
		if covered != tt.n {
			t.Errorf("splitIndexes(%d,%d) covers %d, want %d", tt.n, tt.parts, covered, tt.n)
		}
	}
}

// totalSize is the number of points in the parts of a partition.
func totalSize(parts []metric.Dataset) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

func TestUniformPartitioner(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := randomDataset(rng, 103, 2)
	parts, err := UniformPartitioner{}.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("got %d parts, want 4", len(parts))
	}
	if got := totalSize(parts); got != len(ds) {
		t.Errorf("part sizes sum to %d, want %d", got, len(ds))
	}
	// Sizes differ by at most one.
	minSize, maxSize := len(parts[0]), len(parts[0])
	for _, p := range parts {
		if len(p) < minSize {
			minSize = len(p)
		}
		if len(p) > maxSize {
			maxSize = len(p)
		}
	}
	if maxSize-minSize > 1 {
		t.Errorf("unbalanced uniform partition: min %d max %d", minSize, maxSize)
	}
	if _, err := (UniformPartitioner{}).Partition(ds, 0); err == nil {
		t.Error("ell=0 accepted")
	}
}

func TestUniformPartitionerMorePartsThanPoints(t *testing.T) {
	ds := metric.Dataset{{1}, {2}}
	parts, err := UniformPartitioner{}.Partition(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 5 {
		t.Fatalf("got %d parts, want 5", len(parts))
	}
	if got := totalSize(parts); got != 2 {
		t.Errorf("part sizes sum to %d, want %d", got, 2)
	}
}

func TestRandomPartitionerProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		ell := 1 + rng.Intn(8)
		ds := randomDataset(rng, n, 2)
		parts, _, err := RandomPartitioner{Rand: rng}.PartitionOrigins(ds, ell)
		if err != nil {
			return false
		}
		if len(parts) != ell {
			return false
		}
		return totalSize(parts) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if _, _, err := (RandomPartitioner{}).PartitionOrigins(metric.Dataset{{1}}, -1); err == nil {
		t.Error("negative ell accepted")
	}
}

func TestRandomPartitionerNilRandIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := randomDataset(rng, 50, 2)
	a, _, err := RandomPartitioner{}.PartitionOrigins(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RandomPartitioner{}.PartitionOrigins(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("nil-Rand partitioning not deterministic: part %d sizes %d vs %d", i, len(a[i]), len(b[i]))
		}
	}
}

func TestAdversarialPartitioner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randomDataset(rng, 40, 2)
	targeted := []int{35, 36, 37, 38, 39}
	ap := AdversarialPartitioner{Targeted: targeted}
	parts, _, err := ap.PartitionOrigins(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := totalSize(parts); got != len(ds) {
		t.Errorf("part sizes sum to %d, want %d", got, len(ds))
	}
	// All targeted points are in part 0.
	if len(parts[0]) < len(targeted) {
		t.Errorf("part 0 has %d points, want at least %d", len(parts[0]), len(targeted))
	}
	for _, ti := range targeted {
		found := false
		for _, p := range parts[0] {
			if p.Equal(ds[ti]) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("targeted point %d not in part 0", ti)
		}
	}
	if _, _, err := (AdversarialPartitioner{Targeted: []int{99}}).PartitionOrigins(ds, 2); err == nil {
		t.Error("out-of-range targeted index accepted")
	}
	if _, _, err := ap.PartitionOrigins(ds, 0); err == nil {
		t.Error("ell=0 accepted")
	}
}

func TestMapPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := randomDataset(rng, 120, 2)
	parts, err := UniformPartitioner{}.Partition(ds, 6)
	if err != nil {
		t.Fatal(err)
	}
	sizes, stats, err := MapPartitions(ExecConfig{Parallelism: 3}, parts, func(i int, part metric.Dataset) (int, error) {
		return len(part), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 120 {
		t.Errorf("total mapped points = %d, want 120", total)
	}
	if stats.LocalMemoryPeak != 20 {
		t.Errorf("LocalMemoryPeak = %d, want 20", stats.LocalMemoryPeak)
	}
	if stats.AggregateMemory != 120 {
		t.Errorf("AggregateMemory = %d, want 120", stats.AggregateMemory)
	}
	if stats.Workers != 3 {
		t.Errorf("Workers = %d, want 3", stats.Workers)
	}
}

func TestMapPartitionsErrors(t *testing.T) {
	parts := []metric.Dataset{{{1}}, {{2}}}
	if _, _, err := MapPartitions[int](ExecConfig{}, parts, nil); err == nil {
		t.Error("nil function accepted")
	}
	_, _, err := MapPartitions(ExecConfig{}, parts, func(i int, part metric.Dataset) (int, error) {
		if i == 1 {
			return 0, errors.New("boom")
		}
		return len(part), nil
	})
	if err == nil {
		t.Error("partition error not propagated")
	}
}

func TestMapPartitionsResultsInOrder(t *testing.T) {
	parts := make([]metric.Dataset, 10)
	for i := range parts {
		parts[i] = metric.Dataset{{float64(i)}}
	}
	idx, _, err := MapPartitions(ExecConfig{Parallelism: 4}, parts, func(i int, part metric.Dataset) (int, error) {
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range idx {
		if v != i {
			t.Errorf("result %d = %d, want in-order", i, v)
		}
	}
}

func TestMapPartitionsDefaultParallelism(t *testing.T) {
	parts := []metric.Dataset{{{1}}, {{2}}}
	_, stats, err := MapPartitions(ExecConfig{}, parts, func(i int, part metric.Dataset) (int, error) {
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers <= 0 {
		t.Errorf("default workers = %d, want > 0", stats.Workers)
	}
}
