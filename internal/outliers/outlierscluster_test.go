package outliers

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
)

// cluster runs OutliersCluster(T, k, r, epsHat) exactly as in Algorithm 1 of
// the paper. In each iteration it selects, among all points of T, the point x
// whose ball of radius (1+2*epsHat)*r contains the largest aggregate weight of
// still-uncovered points, then marks as covered every uncovered point within
// distance (3+4*epsHat)*r of x. It stops after k centers or when everything is
// covered. Distances are those of the space sp (nil: Euclidean).
func cluster(sp metric.Space, set metric.WeightedSet, k int, r, epsHat float64) (*ClusterResult, error) {
	if err := validateClusterParams(set, k, r, epsHat); err != nil {
		return nil, err
	}
	if sp == nil {
		sp = metric.EuclideanSpace
	}
	eng := metric.NewEngine(1)
	ev := newEvaluator(eng, newDistRows(eng, sp, set.Points()), set, k, epsHat)
	ev.probe(r)
	return ev.result(), nil
}

func randomDataset(rng *rand.Rand, n, dim int, scale float64) metric.Dataset {
	ds := make(metric.Dataset, n)
	for i := range ds {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = (rng.Float64()*2 - 1) * scale
		}
		ds[i] = p
	}
	return ds
}

// datasetWithOutliers builds k tight clusters plus nOut far-away points.
func datasetWithOutliers(rng *rand.Rand, k, perCluster, nOut, dim int) (metric.Dataset, int) {
	var ds metric.Dataset
	for c := 0; c < k; c++ {
		center := make(metric.Point, dim)
		for j := range center {
			center[j] = float64(c * 100)
		}
		for i := 0; i < perCluster; i++ {
			p := make(metric.Point, dim)
			for j := range p {
				p[j] = center[j] + rng.NormFloat64()
			}
			ds = append(ds, p)
		}
	}
	for o := 0; o < nOut; o++ {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = 1e6 + float64(o*1e4) + rng.Float64()
		}
		ds = append(ds, p)
	}
	return ds, nOut
}

func TestClusterErrors(t *testing.T) {
	set := metric.Unweighted(metric.Dataset{{0}, {1}})
	if _, err := cluster(metric.EuclideanSpace, nil, 1, 1, 0); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := cluster(metric.EuclideanSpace, set, 0, 1, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := cluster(metric.EuclideanSpace, set, 1, -1, 0); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := cluster(metric.EuclideanSpace, set, 1, 1, -0.5); err == nil {
		t.Error("negative epsHat accepted")
	}
}

func TestSolveErrors(t *testing.T) {
	set := metric.Unweighted(metric.Dataset{{0}, {1}})
	if _, err := SolveIn(metric.EuclideanSpace, nil, 1, 0, 0, SearchBinaryGeometric, 1); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := SolveIn(metric.EuclideanSpace, set, 0, 0, 0, SearchBinaryGeometric, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SolveIn(metric.EuclideanSpace, set, 1, -1, 0, SearchBinaryGeometric, 1); err == nil {
		t.Error("negative z accepted")
	}
	if _, err := SolveIn(metric.EuclideanSpace, set, 1, 0, -1, SearchBinaryGeometric, 1); err == nil {
		t.Error("negative epsHat accepted")
	}
	if _, err := CharikarEtAl(metric.EuclideanSpace, metric.Dataset{{0}}, 1, -1); err == nil {
		t.Error("CharikarEtAl negative z accepted")
	}
	if _, err := CharikarEtAlExhaustive(metric.EuclideanSpace, metric.Dataset{{0}}, 1, -1); err == nil {
		t.Error("CharikarEtAlExhaustive negative z accepted")
	}
}

// TestSolveNonFiniteRadius: when +Inf is the smallest feasible candidate, as
// it is for a space that relates points only at +Inf, the search reports it
// as an error instead of returning it as the radius.
func TestSolveNonFiniteRadius(t *testing.T) {
	inf := math.Inf(1)
	allInf := metric.SpaceFromDistance("inf", func(a, b metric.Point) float64 { return inf })
	// Points 0 and 1 are 1 apart and every other pair is +Inf apart: with
	// k = 2 and z = 1, two of the points 2, 3, 4 stay uncovered at every
	// finite radius.
	pairOnly := metric.SpaceFromDistance("pair", func(a, b metric.Point) float64 {
		if a[0] < 2 && b[0] < 2 {
			return math.Abs(a[0] - b[0])
		}
		return inf
	})
	set := metric.Unweighted(metric.Dataset{{0}, {1}, {2}, {3}, {4}})
	for _, sp := range []metric.Space{allInf, pairOnly} {
		for _, strategy := range []SearchStrategy{SearchBinaryGeometric, SearchExhaustive} {
			res, err := SolveIn(sp, set, 2, 1, 0.25, strategy, 1)
			if !errors.Is(err, ErrNonFiniteRadius) || res != nil {
				t.Errorf("%s, strategy %d: result %+v, error %v; want ErrNonFiniteRadius", sp.Name(), strategy, res, err)
			}
		}
	}
	if _, err := CharikarEtAl(allInf, set.Points(), 2, 1); !errors.Is(err, ErrNonFiniteRadius) {
		t.Errorf("CharikarEtAl error %v, want ErrNonFiniteRadius", err)
	}

	// The geometric walk is not taken from the last finite candidate towards
	// +Inf: two binary-search probes and the final one.
	probes := 0
	r := search([]float64{1, inf}, 0.25, SearchBinaryGeometric, func(r float64) bool {
		probes++
		return math.IsInf(r, 1)
	})
	if !math.IsInf(r, 1) || probes != 3 {
		t.Errorf("search settled on %v after %d probes, want +Inf after 3", r, probes)
	}
}

func TestClusterCoversEverythingWithLargeRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := randomDataset(rng, 40, 2, 10)
	set := metric.Unweighted(ds)
	diam := metric.Diameter(metric.Euclidean, ds)
	res, err := cluster(metric.EuclideanSpace, set, 1, diam, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.UncoveredWeight != 0 {
		t.Errorf("uncovered weight = %d, want 0 at diameter radius", res.UncoveredWeight)
	}
	if len(res.Centers) != 1 {
		t.Errorf("centers = %d, want 1", len(res.Centers))
	}
}

func TestClusterRespectsK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := randomDataset(rng, 50, 2, 100)
	set := metric.Unweighted(ds)
	res, err := cluster(metric.EuclideanSpace, set, 3, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) > 3 {
		t.Errorf("selected %d centers, want <= 3", len(res.Centers))
	}
}

func TestClusterUncoveredDefinition(t *testing.T) {
	// Every uncovered point must be at distance > (3+4eps)*r from every
	// center, and every covered point within that distance of some center.
	rng := rand.New(rand.NewSource(3))
	ds := randomDataset(rng, 60, 3, 20)
	set := metric.Unweighted(ds)
	r := 5.0
	epsHat := 0.25
	res, err := cluster(metric.EuclideanSpace, set, 4, r, epsHat)
	if err != nil {
		t.Fatal(err)
	}
	cover := (3 + 4*epsHat) * r
	uncovered := map[int]bool{}
	for _, u := range res.Uncovered {
		uncovered[u] = true
	}
	for i, wp := range set {
		d, _ := metric.DistanceToSet(metric.Euclidean, wp.P, res.Centers)
		if uncovered[i] && d <= cover {
			t.Errorf("point %d marked uncovered but within cover radius (d=%v)", i, d)
		}
		if !uncovered[i] && d > cover+1e-12 {
			t.Errorf("point %d marked covered but outside cover radius (d=%v)", i, d)
		}
	}
}

func TestClusterGreedyPicksHeaviestBall(t *testing.T) {
	// Three locations; the middle one has the largest weight, so with k=1 and
	// a radius that only covers one location per ball, the greedy must pick
	// the heaviest.
	set := metric.WeightedSet{
		{P: metric.Point{0}, W: 5},
		{P: metric.Point{100}, W: 50},
		{P: metric.Point{200}, W: 7},
	}
	res, err := cluster(metric.EuclideanSpace, set, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CenterIndices) != 1 || res.CenterIndices[0] != 1 {
		t.Fatalf("greedy picked %v, want the heaviest point (index 1)", res.CenterIndices)
	}
	if res.UncoveredWeight != 12 {
		t.Errorf("uncovered weight = %d, want 12", res.UncoveredWeight)
	}
}

func TestLemma5CoverageProperty(t *testing.T) {
	// Lemma 5: for r >= r*_{k,z}(S), OutliersCluster on a weighted coreset
	// leaves uncovered weight at most z. We verify the statement directly on
	// the full (unit-weight) input where the proxy function is the identity.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		k := 1 + rng.Intn(2)
		z := rng.Intn(3)
		ds := randomDataset(rng, n, 2, 50)
		opt, err := gmm.BruteForceOptimalRadiusWithOutliers(metric.EuclideanSpace, ds, k, z)
		if err != nil {
			return false
		}
		set := metric.Unweighted(ds)
		for _, epsHat := range []float64{0, 0.1, 0.5} {
			res, err := cluster(metric.EuclideanSpace, set, k, opt, epsHat)
			if err != nil {
				return false
			}
			if res.UncoveredWeight > int64(z) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("Lemma 5 violated: %v", err)
	}
}

func TestSolveThreeApproximation(t *testing.T) {
	// The radius of the returned clustering (computed on the real points,
	// excluding z outliers) must be within (3+eps) of the optimum, checked by
	// brute force on small instances.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(7)
		k := 1 + rng.Intn(2)
		z := rng.Intn(3)
		ds := randomDataset(rng, n, 2, 50)
		opt, err := gmm.BruteForceOptimalRadiusWithOutliers(metric.EuclideanSpace, ds, k, z)
		if err != nil {
			return false
		}
		res, err := CharikarEtAl(metric.EuclideanSpace, ds, k, z)
		if err != nil {
			return false
		}
		got := metric.RadiusExcluding(metric.Euclidean, ds, res.Centers, z)
		// CharikarEtAl guarantees 3*opt.
		return got <= 3*opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("3-approximation violated: %v", err)
	}
}

func TestSolveWithObviousOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, nOut := datasetWithOutliers(rng, 3, 20, 4, 2)
	res, err := CharikarEtAl(metric.EuclideanSpace, ds, 3, nOut)
	if err != nil {
		t.Fatal(err)
	}
	// The clustering radius excluding the outliers should be small (clusters
	// have stddev 1, so a radius around a few units), certainly well below
	// the distance to the planted outliers.
	r := metric.RadiusExcluding(metric.Euclidean, ds, res.Centers, nOut)
	if r > 50 {
		t.Errorf("radius excluding outliers = %v, want small (clusters are tight)", r)
	}
	if res.UncoveredWeight > int64(nOut) {
		t.Errorf("uncovered weight = %d, want <= %d", res.UncoveredWeight, nOut)
	}
}

func TestSolveStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := randomDataset(rng, 30, 2, 20)
	set := metric.Unweighted(ds)
	k, z := 3, int64(2)
	exh, err := SolveIn(metric.EuclideanSpace, set, k, z, 0, SearchExhaustive, 1)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := SolveIn(metric.EuclideanSpace, set, k, z, 0, SearchBinaryGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	if exh.UncoveredWeight > z || bin.UncoveredWeight > z {
		t.Fatalf("a strategy left too much uncovered: exh=%d bin=%d", exh.UncoveredWeight, bin.UncoveredWeight)
	}
	// The binary-search radius can differ from the exhaustive one when the
	// feasibility predicate is not perfectly monotone, but both must be
	// feasible, and the exhaustive radius is never larger.
	if exh.Radius > bin.Radius+1e-9 {
		t.Errorf("exhaustive radius %v > binary radius %v", exh.Radius, bin.Radius)
	}
	if exh.Evaluations <= 0 || bin.Evaluations <= 0 {
		t.Error("evaluations not recorded")
	}
}

func TestSolveDegenerateCases(t *testing.T) {
	// k >= |T|: radius 0 is feasible.
	set := metric.Unweighted(metric.Dataset{{0, 0}, {5, 5}})
	res, err := SolveIn(metric.EuclideanSpace, set, 2, 0, 0.1, SearchBinaryGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius != 0 {
		t.Errorf("radius = %v, want 0 when k >= |T|", res.Radius)
	}
	// All points coincide.
	same := metric.Unweighted(metric.Dataset{{1, 1}, {1, 1}, {1, 1}})
	res, err = SolveIn(metric.EuclideanSpace, same, 1, 0, 0.1, SearchBinaryGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius != 0 || res.UncoveredWeight != 0 {
		t.Errorf("coincident points: radius=%v uncovered=%d, want 0/0", res.Radius, res.UncoveredWeight)
	}
	// z larger than total weight.
	res, err = SolveIn(metric.EuclideanSpace, set, 1, 100, 0, SearchBinaryGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.UncoveredWeight > 100 {
		t.Errorf("uncovered weight = %d exceeds z", res.UncoveredWeight)
	}
}

func TestSolveWeightedVsUnweightedConsistency(t *testing.T) {
	// A weighted set where each point has weight w must behave like the
	// unweighted set with w copies, for the purposes of the uncovered-weight
	// budget.
	rng := rand.New(rand.NewSource(8))
	base := randomDataset(rng, 15, 2, 10)
	weighted := make(metric.WeightedSet, len(base))
	var expanded metric.Dataset
	for i, p := range base {
		w := int64(1 + rng.Intn(4))
		weighted[i] = metric.WeightedPoint{P: p, W: w}
		for c := int64(0); c < w; c++ {
			expanded = append(expanded, p)
		}
	}
	k, z := 2, int64(3)
	wres, err := SolveIn(metric.EuclideanSpace, weighted, k, z, 0, SearchExhaustive, 1)
	if err != nil {
		t.Fatal(err)
	}
	ures, err := SolveIn(metric.EuclideanSpace, metric.Unweighted(expanded), k, z, 0, SearchExhaustive, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wres.UncoveredWeight > z || ures.UncoveredWeight > z {
		t.Fatalf("infeasible solutions: %d / %d", wres.UncoveredWeight, ures.UncoveredWeight)
	}
	// The candidate radii sets are identical (duplicated points add no new
	// distances), so the chosen radii must agree.
	if wres.Radius != ures.Radius {
		t.Errorf("weighted radius %v != expanded radius %v", wres.Radius, ures.Radius)
	}
}

func TestDelta(t *testing.T) {
	if got := delta(0); got != 0 {
		t.Errorf("delta(0) = %v, want 0", got)
	}
	if got := delta(-1); got != 0 {
		t.Errorf("delta(-1) = %v, want 0", got)
	}
	got := delta(0.5)
	want := 0.5 / (3 + 4*0.5)
	if got != want {
		t.Errorf("delta(0.5) = %v, want %v", got, want)
	}
}

// referenceCandidateRadii is the sort-filter-dedupe that candidateRadii
// replaced, kept as its oracle: a comparison sort of all pairwise distances,
// then each positive one once.
func referenceCandidateRadii(ds []float64) []float64 {
	ds = slices.Clone(ds)
	slices.Sort(ds)
	var out []float64
	for _, v := range ds {
		if v > 0 && (len(out) == 0 || v != out[len(out)-1]) {
			out = append(out, v)
		}
	}
	return out
}

func TestCandidateRadii(t *testing.T) {
	ds := metric.Dataset{{0}, {1}, {1}, {3}}
	want := []float64{1, 2, 3}
	cached := newDistRows(metric.NewEngine(1), metric.EuclideanSpace, ds)
	onDemand := &distRows{sp: metric.EuclideanSpace, pts: ds}
	for _, rows := range []*distRows{cached, onDemand} {
		if got := rows.candidateRadii(); !slices.Equal(got, want) {
			t.Fatalf("candidateRadii = %v, want %v", got, want)
		}
	}
	single := newDistRows(metric.NewEngine(1), metric.EuclideanSpace, metric.Dataset{{5}})
	if got := single.candidateRadii(); got != nil {
		t.Errorf("singleton candidates = %v, want nil", got)
	}

	// The property: on both row sources, for spaces whose distances stress
	// the radix sort, the candidates are the oracle's bit for bit.
	onLine := func(a, b metric.Point) float64 { return math.Abs(a[0] - b[0]) }
	sources := []struct {
		name  string
		sp    metric.Space
		point func(rng *rand.Rand) metric.Point
	}{
		// Duplicate points (distance 0) and many equal distances.
		{"grid", metric.EuclideanSpace, func(rng *rand.Rand) metric.Point {
			return metric.Point{float64(rng.Intn(4)), float64(rng.Intn(4))}
		}},
		// Every distance subnormal: the six high bytes are zero.
		{"subnormal", metric.SpaceFromDistance("line", onLine), func(rng *rand.Rand) metric.Point {
			return metric.Point{float64(rng.Intn(1000)) * math.SmallestNonzeroFloat64}
		}},
		// Distances from 2^-1000 to 2^1000: every byte varies.
		{"binades", metric.SpaceFromDistance("line", onLine), func(rng *rand.Rand) metric.Point {
			return metric.Point{math.Ldexp(1+rng.Float64(), rng.Intn(2001)-1000)}
		}},
		// Distances that differ in their two low bytes only.
		{"shared high bytes", metric.SpaceFromDistance("xor", func(a, b metric.Point) float64 {
			return math.Float64frombits(0x4130_0000_0000_0000 | (uint64(a[0]) ^ uint64(b[0])))
		}), func(rng *rand.Rand) metric.Point {
			return metric.Point{float64(rng.Intn(1 << 16))}
		}},
		// +Inf and NaN beside finite distances, symmetric in the pair.
		{"inf and nan", metric.SpaceFromDistance("holes", func(a, b metric.Point) float64 {
			switch s := int(a[0] + b[0]); {
			case s%5 == 0:
				return math.Inf(1)
			case s%7 == 0:
				return math.NaN()
			}
			return onLine(a, b)
		}), func(rng *rand.Rand) metric.Point {
			return metric.Point{float64(rng.Intn(50))}
		}},
	}
	rng := rand.New(rand.NewSource(37))
	for _, src := range sources {
		for trial := 0; trial < 40; trial++ {
			n := 2
			if trial > 0 {
				n += rng.Intn(80)
			}
			pts := make(metric.Dataset, n)
			for i := range pts {
				pts[i] = src.point(rng)
			}
			want := referenceCandidateRadii(metric.PairwiseDistancesIn(src.sp, pts))
			cached := newDistRows(metric.NewEngine(1), src.sp, pts)
			onDemand := &distRows{sp: src.sp, pts: pts}
			for _, rows := range []*distRows{cached, onDemand} {
				got := rows.candidateRadii()
				if !slices.EqualFunc(got, want, func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
					t.Fatalf("%s, n=%d, cached=%v: candidateRadii = %v, want %v", src.name, n, rows.matrix != nil, got, want)
				}
			}
		}
	}
}
