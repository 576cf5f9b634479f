package streaming

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
)

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

func clusteredDataset(rng *rand.Rand, k, perCluster, dim int, separation, spread float64) metric.Dataset {
	var ds metric.Dataset
	for c := 0; c < k; c++ {
		center := make(metric.Point, dim)
		for j := range center {
			center[j] = float64(c) * separation
		}
		for i := 0; i < perCluster; i++ {
			p := make(metric.Point, dim)
			for j := range p {
				p[j] = center[j] + rng.NormFloat64()*spread
			}
			ds = append(ds, p)
		}
	}
	// Shuffle so the stream does not present one cluster at a time.
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

func withOutliers(rng *rand.Rand, ds metric.Dataset, nOut int) metric.Dataset {
	dim := ds.Dim()
	out := ds.Clone()
	for o := 0; o < nOut; o++ {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = 1e5 + float64(o)*1e3 + rng.Float64()
		}
		out = append(out, p)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func feed(t *testing.T, proc Processor, ds metric.Dataset) {
	t.Helper()
	for _, p := range ds {
		if err := proc.Process(p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewDoublingValidation(t *testing.T) {
	if _, err := NewDoublingIn(metric.EuclideanSpace, 0); err == nil {
		t.Error("tau=0 accepted")
	}
	d, err := NewDoublingIn(nil, 3)
	if err != nil || d == nil {
		t.Fatalf("nil distance should default: %v", err)
	}
	if err := d.Process(nil); err == nil {
		t.Error("nil point accepted")
	}
}

func TestDoublingInvariantsProperty(t *testing.T) {
	// Invariants (a), (b), (d) hold after every prefix of a random stream.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		tau := 3 + rng.Intn(10)
		ds := randomDataset(rng, n, 3, 100)
		d, err := NewDoublingIn(metric.EuclideanSpace, tau)
		if err != nil {
			return false
		}
		for _, p := range ds {
			if err := d.Process(p); err != nil {
				return false
			}
			if err := d.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Errorf("doubling invariants violated: %v", err)
	}
}

func TestDoublingInvariantEPhiLowerBound(t *testing.T) {
	// Invariant (e): phi <= r*_tau(S). Verified by brute force on small
	// streams with tiny tau.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(6)
		tau := 2 + rng.Intn(2)
		ds := randomDataset(rng, n, 2, 20)
		d, err := NewDoublingIn(metric.EuclideanSpace, tau)
		if err != nil {
			return false
		}
		for _, p := range ds {
			if err := d.Process(p); err != nil {
				return false
			}
		}
		opt, err := gmm.BruteForceOptimalRadius(metric.EuclideanSpace, ds, tau)
		if err != nil {
			return false
		}
		return d.Phi() <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Errorf("invariant (e) violated: %v", err)
	}
}

func TestDoublingCoverageInvariantC(t *testing.T) {
	// Invariant (c): every processed point is within 8*phi of some center.
	rng := rand.New(rand.NewSource(3))
	ds := randomDataset(rng, 300, 3, 50)
	d, err := NewDoublingIn(metric.EuclideanSpace, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds {
		if err := d.Process(p); err != nil {
			t.Fatal(err)
		}
	}
	centers := d.Coreset().Points()
	bound := 8 * d.Phi()
	for i, p := range ds {
		if dist, _ := metric.DistanceToSet(metric.Euclidean, p, centers); dist > bound+1e-9 {
			t.Fatalf("point %d at distance %v from coreset, bound %v", i, dist, bound)
		}
	}
}

func TestDoublingSmallStreams(t *testing.T) {
	// Fewer than tau+1 points: the coreset is the stream itself, unit weights.
	d, err := NewDoublingIn(metric.EuclideanSpace, 10)
	if err != nil {
		t.Fatal(err)
	}
	ds := metric.Dataset{{1}, {2}, {3}}
	for _, p := range ds {
		if err := d.Process(p); err != nil {
			t.Fatal(err)
		}
	}
	cs := d.Coreset()
	if len(cs) != 3 || cs.TotalWeight() != 3 {
		t.Errorf("small-stream coreset = %v", cs)
	}
	if d.WorkingMemory() != 3 {
		t.Errorf("working memory = %d, want 3", d.WorkingMemory())
	}
	if d.Tau() != 10 {
		t.Errorf("Tau = %d, want 10", d.Tau())
	}
}

func TestDoublingDuplicateInitialPoints(t *testing.T) {
	// All initial points identical: the algorithm must not divide by zero and
	// must keep functioning as distinct points arrive later.
	d, err := NewDoublingIn(metric.EuclideanSpace, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Process(metric.Point{5, 5}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := d.Process(metric.Point{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Coreset().TotalWeight() != 20 {
		t.Errorf("total weight = %d, want 20", d.Coreset().TotalWeight())
	}
}

func TestNewBaseStreamValidation(t *testing.T) {
	if _, err := NewBaseStream(nil, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewBaseStream(nil, 1, 0); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestBaseStreamQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k := 4
	ds := clusteredDataset(rng, k, 200, 3, 100, 1)
	bs, err := NewBaseStream(nil, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, bs, ds)
	centers, err := bs.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) == 0 || len(centers) > k {
		t.Fatalf("centers = %d, want in (0,%d]", len(centers), k)
	}
	r := metric.Radius(metric.Euclidean, ds, centers)
	if r > 30 {
		t.Errorf("radius = %v, want small for well-separated blobs", r)
	}
	if bs.workingMemory() > 4*k {
		t.Errorf("working memory %d exceeds m*k = %d", bs.workingMemory(), 4*k)
	}
	if bs.processed != int64(len(ds)) {
		t.Errorf("processed = %d, want %d", bs.processed, len(ds))
	}
}

// workingMemory is the number of points a BaseStream retains.
func (b *BaseStream) workingMemory() int {
	if b.instances == nil {
		return len(b.initBuf)
	}
	total := 0
	for _, inst := range b.instances {
		total += len(inst.centers)
	}
	return total
}

func TestBaseStreamShortStream(t *testing.T) {
	bs, err := NewBaseStream(nil, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs.Result(); err == nil {
		t.Error("Result on empty stream should fail")
	}
	feed(t, bs, metric.Dataset{{1}, {2}})
	centers, err := bs.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) != 2 {
		t.Errorf("short-stream centers = %d, want 2", len(centers))
	}
	if err := bs.Process(nil); err == nil {
		t.Error("nil point accepted")
	}
}

func TestBaseStreamCoverageProperty(t *testing.T) {
	// Every point of the stream must end up within a bounded multiple of the
	// best guess radius of its centers (the streaming coverage guarantee).
	rng := rand.New(rand.NewSource(7))
	ds := randomDataset(rng, 400, 3, 50)
	k := 6
	bs, err := NewBaseStream(nil, k, 8)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, bs, ds)
	centers, err := bs.Result()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := (gmm.Runner{}).Run(ds, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := metric.Radius(metric.Euclidean, ds, centers)
	// GMM's radius is a 2-approximation of the optimum; the streaming
	// baseline should stay within a moderate constant of it.
	if r > 8*opt.Radius+1e-9 {
		t.Errorf("BaseStream radius %v too large versus GMM radius %v", r, opt.Radius)
	}
}

func TestNewBaseOutliersValidation(t *testing.T) {
	if _, err := NewBaseOutliers(nil, 0, 1, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewBaseOutliers(nil, 1, -1, 1); err == nil {
		t.Error("z<0 accepted")
	}
	if _, err := NewBaseOutliers(nil, 1, 1, 0); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestBaseOutliersQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	k, z := 3, 6
	base := clusteredDataset(rng, k, 120, 2, 100, 1)
	ds := withOutliers(rng, base, z)
	bo, err := NewBaseOutliers(nil, k, z, 4)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, bo, ds)
	centers, err := bo.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) == 0 || len(centers) > k {
		t.Fatalf("centers = %d, want in (0,%d]", len(centers), k)
	}
	r := metric.RadiusExcluding(metric.Euclidean, ds, centers, z)
	if r > 40 {
		t.Errorf("outlier-aware radius = %v, want small", r)
	}
	if bo.WorkingMemory() > 4*((k+1)*(z+1)+k+1) {
		t.Errorf("working memory %d exceeds budget", bo.WorkingMemory())
	}
	if bo.processed != int64(len(ds)) {
		t.Errorf("processed = %d, want %d", bo.processed, len(ds))
	}
}

func TestBaseOutliersShortStream(t *testing.T) {
	bo, err := NewBaseOutliers(nil, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bo.Result(); err == nil {
		t.Error("Result on empty stream should fail")
	}
	feed(t, bo, metric.Dataset{{1}, {2}, {3}})
	centers, err := bo.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(centers) == 0 {
		t.Error("no centers on short stream")
	}
	if err := bo.Process(nil); err == nil {
		t.Error("nil point accepted")
	}
}

func TestMergeDoublingsRestoresInvariants(t *testing.T) {
	// Centers from different shards can lie arbitrarily close, so the union
	// may violate invariant (b) even when it fits the budget; the merge must
	// re-establish it. Shard A holds {0, 100}, shard B holds {1, 101}: the
	// four centers fit tau=4, but 0 and 1 are within 4*phi.
	mk := func(coords ...float64) *Doubling {
		st := DoublingState{Tau: 4, Phi: 10, Processed: int64(len(coords)), Initialized: true}
		for _, c := range coords {
			st.Points = append(st.Points, metric.WeightedPoint{P: metric.Point{c}, W: 1})
		}
		d, err := RestoreDoublingIn(metric.EuclideanSpace, st)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if _, err := MergeDoublings(nil, mk(0, 100)); err == nil {
		t.Error("MergeDoublings(nil, ...) should error, not panic")
	}
	merged, err := MergeDoublings(mk(0, 100), mk(1, 101))
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.CheckInvariants(); err != nil {
		t.Errorf("merged state: %v", err)
	}
	// The merged state must remain a live processor: keep observing and the
	// invariants must keep holding.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		if err := merged.Process(metric.Point{rng.Float64() * 200}); err != nil {
			t.Fatal(err)
		}
		if err := merged.CheckInvariants(); err != nil {
			t.Fatalf("after point %d: %v", i, err)
		}
	}
}

func TestMergeDoublingsInvariantsProperty(t *testing.T) {
	// Invariants hold for merges of real shard states across random data,
	// shard counts and budgets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tau := 4 + rng.Intn(12)
		shards := 2 + rng.Intn(4)
		ds := clusteredDataset(rng, 5, 30, 3, 100, 2)
		procs := make([]*Doubling, shards)
		for i := range procs {
			d, err := NewDoublingIn(metric.EuclideanSpace, tau)
			if err != nil {
				return false
			}
			for j := i; j < len(ds); j += shards {
				if err := d.Process(ds[j]); err != nil {
					return false
				}
			}
			procs[i] = d
		}
		merged, err := MergeDoublings(procs...)
		if err != nil {
			return false
		}
		return merged.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Errorf("merged doubling invariants violated: %v", err)
	}
}

// TestDoublingCloneCopiesHeadersOnly guards the cost model of Clone: a
// constant number of allocations (the struct and its header slices) however
// many points are retained, because coordinates are shared, not copied.
func TestDoublingCloneCopiesHeadersOnly(t *testing.T) {
	const tau = 2048
	d, err := NewDoublingIn(metric.EuclideanSpace, tau)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, randomDataset(rand.New(rand.NewSource(21)), 3*tau, 8, 100))
	if d.WorkingMemory() < tau/4 {
		t.Fatalf("only %d points retained; the guard needs a well-filled coreset", d.WorkingMemory())
	}
	var cp *Doubling
	if allocs := testing.AllocsPerRun(10, func() { cp = d.Clone() }); allocs > 4 {
		t.Errorf("Clone of %d retained points made %v allocations, want at most 4", d.WorkingMemory(), allocs)
	}
	if &cp.centers[0] == &d.centers[0] || &cp.pts[0] == &d.pts[0] {
		t.Error("clone shares a header slice with the original")
	}
	if &cp.centers[0].P[0] != &d.centers[0].P[0] {
		t.Error("clone copied coordinates instead of sharing them")
	}
}
