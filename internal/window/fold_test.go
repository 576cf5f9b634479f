package window

import (
	"math"
	"math/rand"
	"testing"

	"coresetclustering/internal/metric"
)

// quadraticFold is the fold by pairwise comparison that foldDuplicates
// replaced: the oracle for its output.
func quadraticFold(set metric.WeightedSet) metric.WeightedSet {
	var out metric.WeightedSet
	for _, wp := range set {
		merged := false
		for i := range out {
			if out[i].P.Equal(wp.P) {
				out[i].W += wp.W
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, wp)
		}
	}
	return out
}

// TestFoldDuplicatesMatchesQuadratic folds duplicate-heavy sets — a few
// lattice locations, zero coordinates written as -0 or +0 at random —
// through the hashed fold, with coordHash and with hashes that collide
// (every point alike, or only the first coordinate counted), and checks
// entry by entry that the survivors are the same points (first occurrence,
// by identity), in the same order, with the same weights.
func TestFoldDuplicatesMatchesQuadratic(t *testing.T) {
	hashes := map[string]func(metric.Point) uint64{
		"coordHash": coordHash,
		"constant":  func(metric.Point) uint64 { return 42 },
		"first":     func(p metric.Point) uint64 { return coordHash(p[:1]) },
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 7, 100, 642} {
		for _, spread := range []int{1, 3, 10} {
			set := make(metric.WeightedSet, n)
			for i := range set {
				p := make(metric.Point, 3)
				for j := range p {
					p[j] = float64(rng.Intn(spread))
					if p[j] == 0 && rng.Intn(2) == 0 {
						p[j] = math.Copysign(0, -1)
					}
				}
				set[i] = metric.WeightedPoint{P: p, W: 1 + rng.Int63n(5)}
			}
			want := quadraticFold(set)
			for name, h := range hashes {
				got := foldDuplicates(append(metric.WeightedSet(nil), set...), h)
				if len(got) != len(want) {
					t.Fatalf("%s, n=%d spread=%d: %d entries, want %d", name, n, spread, len(got), len(want))
				}
				for i := range want {
					if &got[i].P[0] != &want[i].P[0] || got[i].W != want[i].W {
						t.Fatalf("%s, n=%d spread=%d: entry %d is %v x%d, want %v x%d", name, n, spread, i, got[i].P, got[i].W, want[i].P, want[i].W)
					}
				}
			}
		}
	}
	if coordHash(metric.Point{math.Copysign(0, -1), 1}) != coordHash(metric.Point{0, 1}) {
		t.Error("coordHash tells -0 from +0")
	}
}
