package gmm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"coresetclustering/internal/metric"
)

func parallelTestDataset(n, dim int, seed int64) metric.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := make(metric.Dataset, n)
	for i := range ds {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		ds[i] = p
	}
	// Duplicate some points so the farthest scan hits genuine ties and the
	// lowest-index tie-break is exercised.
	for i := 5; i+50 < n; i += 50 {
		ds[i+13] = ds[i].Clone()
	}
	return ds
}

func requireSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Radius != want.Radius {
		t.Fatalf("%s: radius = %v, want %v", label, got.Radius, want.Radius)
	}
	if got.RadiusAtK != want.RadiusAtK {
		t.Fatalf("%s: radiusAtK = %v, want %v", label, got.RadiusAtK, want.RadiusAtK)
	}
	if len(got.CenterIndices) != len(want.CenterIndices) {
		t.Fatalf("%s: %d centers, want %d", label, len(got.CenterIndices), len(want.CenterIndices))
	}
	for i := range want.CenterIndices {
		if got.CenterIndices[i] != want.CenterIndices[i] {
			t.Fatalf("%s: center %d = index %d, want %d", label, i, got.CenterIndices[i], want.CenterIndices[i])
		}
	}
	for i := range want.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			t.Fatalf("%s: assignment[%d] = %d, want %d", label, i, got.Assignment[i], want.Assignment[i])
		}
	}
}

// TestRunnerDeterminismAcrossWorkers is the determinism golden for the GMM
// family: for sizes straddling the engine's sequential cutoff, every Runner
// entry point must produce bit-identical centers, radii and assignments at
// workers = 1 and workers = 8 (and at the auto setting).
func TestRunnerDeterminismAcrossWorkers(t *testing.T) {
	for _, n := range []int{40, 1000, 9000} {
		ds := parallelTestDataset(n, 3, int64(n)*7)
		k := 12
		seq := Runner{Space: metric.EuclideanSpace, Workers: 1}
		for _, w := range []int{0, 2, 8} {
			par := Runner{Space: metric.EuclideanSpace, Workers: w}

			want, err := seq.Run(ds, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Run(ds, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "Run", want, got)

			want, err = seq.RunIncremental(ds, k, 0.25, 4*k, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err = par.RunIncremental(ds, k, 0.25, 4*k, 0)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "RunIncremental", want, got)

			want, err = seq.RunToSize(ds, 3*k, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err = par.RunToSize(ds, 3*k, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "RunToSize", want, got)

			wantHist := seq.radiusHistory(ds, 2*k, 0)
			gotHist := par.radiusHistory(ds, 2*k, 0)
			for i := range wantHist {
				if gotHist[i] != wantHist[i] {
					t.Fatalf("radiusHistory[%d] = %v, want %v (n=%d w=%d)", i, gotHist[i], wantHist[i], n, w)
				}
			}
		}
	}
}

// TestRunnerDistanceBudgetAcrossWorkers checks that parallelism changes only
// the schedule, never the work. Through the adapter (a custom or instrumented
// distance function) a k-center run performs exactly k*n distance
// evaluations — one initialisation pass plus k-1 update passes, never pruned
// — whatever the worker count. On a native space that can prune, the count
// is data-dependent but identical for every worker count and never above
// k*n + k(k-1)/2 (every center evaluated against all points and all earlier
// centers) plus the probes' center-to-center evaluations, at most 3k; on
// clustered input it must come in under half the textbook k*n.
func TestRunnerDistanceBudgetAcrossWorkers(t *testing.T) {
	n, k := 9000, 7
	ds := parallelTestDataset(n, 2, 11)
	for _, w := range []int{1, 8} {
		c := metric.NewCounter(metric.Euclidean)
		if _, err := (Runner{Space: metric.SpaceFromDistance("counter", c.Distance), Workers: w}).Run(ds, k, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := c.Calls(), int64(k*n); got != want {
			t.Fatalf("workers=%d: %d distance calls, want exactly %d", w, got, want)
		}
	}

	// The native Space path: the nearest-center cache is min-merged against
	// the single new center per round, never rebuilt by a full rescan against
	// all selected centers — a rescanning implementation would need
	// n*k*(k+1)/2 evaluations.
	for _, tc := range []struct {
		name    string
		ds      metric.Dataset
		k       int
		halfOfN bool // clustered: under half the textbook k*n
	}{
		{name: "gaussian", ds: ds, k: k},
		{name: "gaussian-many-centers", ds: ds, k: 200},
		{name: "blobs", ds: blobsFixture(n, 8, 10, 11), k: 200, halfOfN: true},
	} {
		dense := int64(tc.k * n)
		budget := dense + int64(tc.k*(tc.k-1)/2+3*tc.k)
		var first int64
		for i, w := range []int{1, 2, 8} {
			cs := metric.NewCountingSpace(metric.EuclideanSpace)
			if _, err := (Runner{Space: cs, Workers: w}).Run(tc.ds, tc.k, 0); err != nil {
				t.Fatal(err)
			}
			got := cs.Evaluations()
			if i == 0 {
				first = got
			}
			if got != first || got > budget {
				t.Fatalf("%s, workers=%d: %d evaluations, want the %d of workers=1 and at most %d", tc.name, w, got, first, budget)
			}
			if tc.halfOfN && 2*got > dense {
				t.Fatalf("%s, workers=%d: %d evaluations, want at most half of k*n = %d", tc.name, w, got, dense)
			}
		}
		if tc.k < firstProbe && first != dense {
			t.Fatalf("%s: %d evaluations below the first probe, want exactly k*n = %d", tc.name, first, dense)
		}
	}
}

// TestRunnerConcurrentRuns exercises concurrent GMM runs sharing nothing but
// the input dataset (which the algorithm treats as immutable); run under
// -race this guards against the engine leaking state between runs.
func TestRunnerConcurrentRuns(t *testing.T) {
	ds := parallelTestDataset(9000, 2, 23)
	k := 6
	want, err := Runner{Space: metric.EuclideanSpace, Workers: 1}.Run(ds, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := Runner{Space: metric.EuclideanSpace, Workers: 4}.Run(ds, k, 0)
			if err != nil {
				errs[g] = err
				return
			}
			for i := range want.CenterIndices {
				if got.CenterIndices[i] != want.CenterIndices[i] {
					errs[g] = fmt.Errorf("center %d = index %d, want %d", i, got.CenterIndices[i], want.CenterIndices[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: concurrent run diverged or failed: %v", g, err)
		}
	}
}

// TestFarthestTiesAcrossChunks plants exact ties for the farthest point where
// the one-pass dense round can get them wrong: copies of one far point on
// both sides of every chunk boundary the engine draws at 2 and 3 workers, a
// third copy further into the later chunk, one more at the last index. Each
// round's farthest point is then one of those groups; the textbook oracle,
// with its own sequential argmax, takes the lowest index, and so must the
// chunked update (first equal entry within a chunk, strict comparison across
// chunks) at every worker count. n >= 2*SequentialCutoff keeps the dense
// round on the chunked path.
func TestFarthestTiesAcrossChunks(t *testing.T) {
	const dim, groups = 8, 16
	n := 2*metric.SequentialCutoff + 101
	rng := rand.New(rand.NewSource(5))
	points := make(metric.Dataset, n)
	for i := range points {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = rng.Float64()
		}
		points[i] = p
	}
	var bounds []int
	for _, w := range []int{2, 3} {
		e := metric.NewEngine(w)
		starts := make([]int, e.NumChunks(n))
		e.ForEachChunk(n, func(chunk, lo, _ int) { starts[chunk] = lo })
		bounds = append(bounds, starts[1:]...)
	}
	if len(bounds) != 3 {
		t.Fatalf("chunk boundaries %v, want one at 2 workers and two at 3", bounds)
	}
	// Group g sits at distance 1000-10g along its own signed axis, so the
	// groups are selected in order, one per round after the seed.
	lowest := make([]int, groups)
	for g := range groups {
		far := make(metric.Point, dim)
		far[g/2] = float64(1000 - 10*g)
		if g%2 == 1 {
			far[g/2] = -far[g/2]
		}
		b, o := bounds[g%len(bounds)], g/len(bounds)
		lowest[g] = b - 1 - o
		for _, i := range []int{b - 1 - o, b + o, b + o + 7, n - 1 - g} {
			points[i] = far
		}
	}
	k := groups + 4
	want := referenceToSize(metric.EuclideanSpace, points, k, k, 0)
	for g, i := range lowest {
		if want.CenterIndices[g+1] != i {
			t.Fatalf("oracle center %d = index %d, want group %d's lowest copy %d", g+1, want.CenterIndices[g+1], g, i)
		}
	}
	for _, w := range []int{1, 2, 3} {
		got, err := Runner{Space: metric.EuclideanSpace, Workers: w}.Run(points, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("workers=%d", w), want, got)
	}
}
