package outliers

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"coresetclustering/internal/metric"
)

// This file keeps the textbook OutliersCluster — every candidate's ball weight
// recomputed from scratch for each of the k centers, O(k|T|^2) per radius —
// and the radius search around it as the oracle the production evaluator
// must match bit for bit.

// referenceDistances returns d(i, j) over the true distances of the points,
// evaluated once per pair by the space's batched kernel, with a zero
// diagonal.
func referenceDistances(sp metric.Space, pts metric.Dataset) func(i, j int) float64 {
	n := len(pts)
	tri := metric.PairwiseDistancesIn(sp, pts)
	return func(i, j int) float64 {
		if i == j {
			return 0
		}
		if i > j {
			i, j = j, i
		}
		return tri[i*n-i*(i+1)/2+j-i-1]
	}
}

func referenceCluster(pd func(i, j int) float64, set metric.WeightedSet, k int, r, epsHat float64) *ClusterResult {
	n := len(set)
	ballRadius := (1 + 2*epsHat) * r
	coverRadius := (3 + 4*epsHat) * r
	uncovered := make([]bool, n)
	for i := range uncovered {
		uncovered[i] = true
	}
	uncoveredCount := n
	res := &ClusterResult{}
	for len(res.CenterIndices) < k && uncoveredCount > 0 {
		bestIdx, bestWeight := -1, int64(-1)
		for t := 0; t < n; t++ {
			var w int64
			for v := 0; v < n; v++ {
				if uncovered[v] && pd(t, v) <= ballRadius {
					w += set[v].W
				}
			}
			if w > bestWeight {
				bestWeight = w
				bestIdx = t
			}
		}
		if bestIdx < 0 {
			break
		}
		res.CenterIndices = append(res.CenterIndices, bestIdx)
		res.Centers = append(res.Centers, set[bestIdx].P)
		for v := 0; v < n; v++ {
			if uncovered[v] && pd(bestIdx, v) <= coverRadius {
				uncovered[v] = false
				uncoveredCount--
			}
		}
	}
	for i, u := range uncovered {
		if u {
			res.Uncovered = append(res.Uncovered, i)
			res.UncoveredWeight += set[i].W
		}
	}
	return res
}

// referenceSolve is the radius search written directly against
// referenceCluster: every probe materialises a full clustering.
func referenceSolve(sp metric.Space, set metric.WeightedSet, k int, z int64, epsHat float64, strategy SearchStrategy) (*ClusterResult, float64, int) {
	pts := set.Points()
	pd := referenceDistances(sp, pts)
	evals := 0
	feasible := func(r float64) (*ClusterResult, bool) {
		evals++
		res := referenceCluster(pd, set, k, r, epsHat)
		return res, res.UncoveredWeight <= z
	}
	res, ok := feasible(0)
	if ok {
		return res, 0, evals
	}
	var candidates []float64
	ds := metric.PairwiseDistancesIn(sp, pts)
	sort.Float64s(ds)
	for _, d := range ds {
		if d > 0 && (len(candidates) == 0 || d != candidates[len(candidates)-1]) {
			candidates = append(candidates, d)
		}
	}
	if len(candidates) == 0 {
		return res, 0, evals
	}
	if strategy == SearchExhaustive {
		for _, r := range candidates {
			if res, ok := feasible(r); ok {
				return res, r, evals
			}
		}
		panic("no feasible candidate")
	}
	lo, hi := 0, len(candidates)-1
	firstFeasible := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if _, ok := feasible(candidates[mid]); ok {
			firstFeasible = mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if firstFeasible < 0 {
		panic("no feasible candidate")
	}
	rHi := candidates[firstFeasible]
	rLo := 0.0
	if firstFeasible > 0 {
		rLo = candidates[firstFeasible-1]
	}
	chosen := rHi
	if step := delta(epsHat); step > 0 && rLo > 0 && rHi > rLo*(1+step) {
		for r := rLo * (1 + step); r < rHi; r *= 1 + step {
			if _, ok := feasible(r); ok {
				chosen = r
				break
			}
		}
	}
	res, ok = feasible(chosen)
	if !ok {
		panic("chosen radius not feasible")
	}
	return res, chosen, evals
}

// tieHeavySet draws n weighted points on a small integer grid: duplicate
// points, many equal pairwise distances, and — weights being small integers —
// many candidates with exactly equal ball weights.
func tieHeavySet(rng *rand.Rand, n, dim, side int) metric.WeightedSet {
	set := make(metric.WeightedSet, n)
	for i := range set {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = float64(rng.Intn(side))
		}
		if i > 0 && rng.Intn(4) == 0 {
			p = set[rng.Intn(i)].P // an exact duplicate location
		}
		set[i] = metric.WeightedPoint{P: p, W: 1 + int64(rng.Intn(3))}
	}
	return set
}

func equivalenceSpaces() []metric.Space {
	spaces := []metric.Space{
		metric.EuclideanSpace,
		metric.ManhattanSpace,
		metric.ChebyshevSpace,
		metric.AngularSpace,
		metric.CosineSpace,
	}
	// A metric the library has no native kernels for, through the adapter.
	l1Capped := func(a, b metric.Point) float64 { return math.Min(metric.Manhattan(a, b), 7) }
	return append(spaces, metric.SpaceFromDistance("capped-l1", l1Capped))
}

func diffCluster(got, want *ClusterResult) string {
	switch {
	case !slices.Equal(got.CenterIndices, want.CenterIndices):
		return fmt.Sprintf("center indices %v, want %v", got.CenterIndices, want.CenterIndices)
	case !slices.Equal(got.Uncovered, want.Uncovered):
		return fmt.Sprintf("uncovered %v, want %v", got.Uncovered, want.Uncovered)
	case got.UncoveredWeight != want.UncoveredWeight:
		return fmt.Sprintf("uncovered weight %d, want %d", got.UncoveredWeight, want.UncoveredWeight)
	case len(got.Centers) != len(want.Centers):
		return fmt.Sprintf("%d centers, want %d", len(got.Centers), len(want.Centers))
	}
	for i := range want.Centers {
		if &got.Centers[i][0] != &want.Centers[i][0] {
			return fmt.Sprintf("center %d is not the input point %d", i, want.CenterIndices[i])
		}
	}
	return ""
}

// TestEvaluatorMatchesReference: on sets built to tie, the incremental
// evaluator — behind Solve with either row source and any worker count, and
// behind the public Cluster — returns exactly what the recompute-everything
// greedy returns: same centers in the same order, same uncovered points, same
// radius after the same number of probes.
func TestEvaluatorMatchesReference(t *testing.T) {
	shapes := []struct{ n, dim, side, k int }{
		{1, 2, 3, 1},
		{7, 1, 4, 2},
		{24, 2, 5, 3},
		{40, 4, 3, 4},  // dim 4 takes the vector kernels where there are any
		{92, 3, 9, 4},  // n*n above the engine's cutoff: the chunked pass runs
		{100, 4, 5, 6}, // likewise, and whole chunks of tied candidates
	}
	for si, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(1000 + si)))
		set := tieHeavySet(rng, sh.n, sh.dim, sh.side)
		var total int64
		for _, wp := range set {
			total += wp.W
		}
		// z = 0 makes the exhaustive search walk most of the candidates: on the
		// small shapes only.
		budgets := []int64{total / 8}
		if sh.n <= 40 {
			budgets = append(budgets, 0)
		}
		for _, sp := range equivalenceSpaces() {
			pts := set.Points()
			pd := referenceDistances(sp, pts)
			for _, epsHat := range []float64{0, 0.25} {
				name := fmt.Sprintf("n=%d/%s/eps=%v", sh.n, sp.Name(), epsHat)

				// One clustering at a time, through the public entry point:
				// radius 0, candidate radii hit exactly, and values between.
				radii := []float64{0, 0.5, 1, math.Sqrt2, 2, 3, 2 * float64(sh.side)}
				for i := 0; i < 3 && sh.n > 1; i++ {
					radii = append(radii, pd(rng.Intn(sh.n), rng.Intn(sh.n)))
				}
				for _, r := range radii {
					got, err := cluster(sp, set, sh.k, r, epsHat)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffCluster(got, referenceCluster(pd, set, sh.k, r, epsHat)); d != "" {
						t.Fatalf("%s: cluster(r=%v): %s", name, r, d)
					}
				}

				for _, strategy := range []SearchStrategy{SearchBinaryGeometric, SearchExhaustive} {
					for _, z := range budgets {
						want, wantRadius, wantEvals := referenceSolve(sp, set, sh.k, z, epsHat, strategy)
						// check compares a solve to the oracle; uncovered is the
						// list the evaluator was left with, where the caller can
						// see it (SolveResult does not carry one).
						check := func(label string, res *SolveResult, uncovered []int) {
							t.Helper()
							got := &ClusterResult{Centers: res.Centers, CenterIndices: res.CenterIndices, Uncovered: uncovered, UncoveredWeight: res.UncoveredWeight}
							d := diffCluster(got, want)
							switch {
							case d != "":
							case res.Radius != wantRadius:
								d = fmt.Sprintf("radius %v, want %v", res.Radius, wantRadius)
							case res.Evaluations != wantEvals:
								d = fmt.Sprintf("%d evaluations, want %d", res.Evaluations, wantEvals)
							}
							if d != "" {
								t.Fatalf("%s strategy=%d z=%d %s: %s", name, strategy, z, label, d)
							}
						}
						for _, workers := range []int{1, 2, 8} {
							res, err := SolveIn(sp, set, sh.k, z, epsHat, strategy, workers)
							if err != nil {
								t.Fatal(err)
							}
							check(fmt.Sprintf("matrix rows, workers=%d", workers), res, want.Uncovered)
							ev := newEvaluator(metric.NewEngine(workers), &distRows{sp: sp, pts: pts}, set, sh.k, epsHat)
							res = solve(ev, z, strategy)
							check(fmt.Sprintf("on-demand rows, workers=%d", workers), res, ev.result().Uncovered)
						}
					}
				}
			}
		}
	}
}

// TestBallWeightsStayExact looks inside the evaluator after a probe: every
// maintained ball weight equals the sum recomputed from scratch over the
// points that were uncovered when the last center was picked (the decrements
// for that center's own coverage are skipped, nothing reads them), so none has
// drifted and none is negative. Both row sources, radii from "covers nothing"
// to "covers everything".
func TestBallWeightsStayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	set := tieHeavySet(rng, 100, 3, 6)
	pts := set.Points()
	for _, sp := range equivalenceSpaces() {
		pd := referenceDistances(sp, pts)
		eng := metric.NewEngine(2)
		sources := map[string]*distRows{
			"matrix rows":    newDistRows(eng, sp, pts),
			"on-demand rows": {sp: sp, pts: pts},
		}
		for label, rows := range sources {
			for _, k := range []int{1, 3, 8} {
				ev := newEvaluator(eng, rows, set, k, 0.25)
				for _, r := range []float64{0, 0.5, 1, 2, 4, 100} {
					ev.probe(r)
					live := slices.Clone(ev.uncovered)
					for _, v := range ev.covered {
						live[v] = true
					}
					for c, got := range ev.ballW {
						var want int64
						for v, u := range live {
							if u && pd(c, v) <= (1+2*0.25)*r {
								want += set[v].W
							}
						}
						if got != want || got < 0 {
							t.Fatalf("%s, %s, k=%d r=%v: ball weight of %d is %d, want %d", sp.Name(), label, k, r, c, got, want)
						}
					}
				}
			}
		}
	}
}

// TestClusterAboveMatrixCap runs one clustering on a set one point too large
// for the cached matrix, through the public entry point: unit points at
// 0, 1, ..., n-1 on a line, where the greedy can be followed by hand. With
// r = 512 the first ball of 2r+1 points is centered at 512 and covers up to
// 4r = 2048; among the rest the first full ball is centered at 2049+512, and
// covers everything left.
func TestClusterAboveMatrixCap(t *testing.T) {
	n := maxCachedMatrixSize + 1
	pts := make(metric.Dataset, n)
	for i := range pts {
		pts[i] = metric.Point{float64(i)}
	}
	if newDistRows(metric.NewEngine(1), metric.EuclideanSpace, pts).matrix != nil {
		t.Fatalf("%d points got a cached matrix", n)
	}
	set := metric.Unweighted(pts)
	got, err := cluster(metric.EuclideanSpace, set, 2, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	onLine := func(i, j int) float64 { return math.Abs(float64(i - j)) }
	if d := diffCluster(got, referenceCluster(onLine, set, 2, 512, 0)); d != "" {
		t.Fatal(d)
	}
	if want := []int{512, 2561}; !slices.Equal(got.CenterIndices, want) || got.UncoveredWeight != 0 {
		t.Fatalf("centers %v with weight %d uncovered, want %v and 0", got.CenterIndices, got.UncoveredWeight, want)
	}
}

// TestSolveSingleProbeWhenNoCandidates: when radius 0 is the only radius
// there is, its clustering is computed once and returned — whether it meets
// the budget (all points coincide, any z) or cannot (a broken distance that
// relates no two points, the one way to have no candidate and still leave
// weight uncovered).
func TestSolveSingleProbeWhenNoCandidates(t *testing.T) {
	same := metric.WeightedSet{
		{P: metric.Point{2, 2}, W: 5},
		{P: metric.Point{2, 2}, W: 1},
		{P: metric.Point{2, 2}, W: 9},
		{P: metric.Point{2, 2}, W: 3},
	}
	nan := metric.SpaceFromDistance("nan", func(a, b metric.Point) float64 { return math.NaN() })
	cases := []struct {
		name      string
		sp        metric.Space
		z         int64
		uncovered int64
	}{
		{"coincident, z=0", metric.EuclideanSpace, 0, 0},
		{"coincident, z above the total weight", metric.EuclideanSpace, 100, 0},
		// One center at radius 0 covers itself only: the heaviest point, and
		// 5+1+3 stays uncovered.
		{"unrelated, z below the excess weight", nan, 8, 9},
		{"unrelated, z above the excess weight", nan, 9, 9},
	}
	for _, tc := range cases {
		for _, strategy := range []SearchStrategy{SearchBinaryGeometric, SearchExhaustive} {
			res, err := SolveIn(tc.sp, same, 1, tc.z, 0.25, strategy, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Evaluations != 1 || res.Radius != 0 || res.UncoveredWeight != tc.uncovered {
				t.Errorf("%s: evaluations=%d radius=%v uncovered=%d, want 1, 0, %d",
					tc.name, res.Evaluations, res.Radius, res.UncoveredWeight, tc.uncovered)
			}
			wantCenter := 0
			if tc.sp == nan {
				wantCenter = 2
			}
			if !slices.Equal(res.CenterIndices, []int{wantCenter}) || len(res.Centers) != 1 {
				t.Errorf("%s: centers %v, want [%d]", tc.name, res.CenterIndices, wantCenter)
			}
		}
	}
}
