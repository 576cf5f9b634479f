package coreset

import (
	"math"
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

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantErr bool
	}{
		{"eps rule", Spec{Eps: 0.5, RefCenters: 3}, false},
		{"size rule", Spec{Size: 10}, false},
		{"both zero", Spec{}, true},
		{"both set", Spec{Eps: 0.5, Size: 10, RefCenters: 3}, true},
		{"negative eps", Spec{Eps: -1, RefCenters: 3}, true},
		{"negative size", Spec{Size: -1}, true},
		{"eps without ref", Spec{Eps: 0.5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(metric.Euclidean, nil, Spec{Size: 5}); err == nil {
		t.Error("empty partition accepted")
	}
	if _, err := Build(metric.Euclidean, metric.Dataset{{1}}, Spec{}); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestBuildFixedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := randomDataset(rng, 200, 3, 10)
	c, err := Build(metric.Euclidean, ds, Spec{Size: 25, RefCenters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 25 {
		t.Fatalf("coreset size = %d, want 25", c.Size())
	}
	if c.SourceSize != 200 {
		t.Errorf("SourceSize = %d, want 200", c.SourceSize)
	}
	// Weights sum to the partition size.
	var total int64
	for _, w := range c.Weights {
		total += w
		if w < 0 {
			t.Errorf("negative weight %d", w)
		}
	}
	if total != 200 {
		t.Errorf("total weight = %d, want 200", total)
	}
	// Proxy radius matches the assignment.
	var maxd float64
	for i, p := range ds {
		d := metric.Euclidean(p, c.Points[c.Assignment[i]])
		if d > maxd {
			maxd = d
		}
	}
	if math.Abs(maxd-c.ProxyRadius) > 1e-9 {
		t.Errorf("ProxyRadius = %v, recomputed %v", c.ProxyRadius, maxd)
	}
	// RadiusAtRef (after 5 centers) must be at least the final proxy radius.
	if c.RadiusAtRef < c.ProxyRadius-1e-12 {
		t.Errorf("RadiusAtRef %v < ProxyRadius %v", c.RadiusAtRef, c.ProxyRadius)
	}
}

func TestBuildEpsRule(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := randomDataset(rng, 300, 2, 10)
	eps := 0.5
	k := 4
	c, err := Build(metric.Euclidean, ds, Spec{Eps: eps, RefCenters: k})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() < k {
		t.Fatalf("coreset smaller than k: %d", c.Size())
	}
	// Stopping rule: proxy radius <= (eps/2) * radius after k centers.
	if c.ProxyRadius > (eps/2)*c.RadiusAtRef+1e-12 {
		t.Errorf("stopping rule violated: %v > %v", c.ProxyRadius, (eps/2)*c.RadiusAtRef)
	}
}

func TestLemma2ProxyDistanceProperty(t *testing.T) {
	// Lemma 2: with the eps stopping rule and RefCenters = k, every point is
	// within eps * r*_k(S) of its proxy, even when the coreset is built on a
	// subset of S (composability). Verified against brute force on small
	// instances.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		eps := 0.25 + rng.Float64()*0.75
		ds := randomDataset(rng, n, 2, 50)
		// Split into two halves; build a coreset on each half.
		half := n / 2
		parts := []metric.Dataset{ds[:half], ds[half:]}
		opt, err := gmm.BruteForceOptimalRadius(metric.EuclideanSpace, ds, k)
		if err != nil {
			return false
		}
		for _, part := range parts {
			if len(part) == 0 {
				continue
			}
			c, err := Build(metric.Euclidean, part, Spec{Eps: eps, RefCenters: k})
			if err != nil {
				return false
			}
			for i, p := range part {
				d := metric.Euclidean(p, c.Points[c.Assignment[i]])
				if d > eps*opt+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Errorf("Lemma 2 violated: %v", err)
	}
}

func TestUnionAndUnionPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDataset(rng, 50, 2, 10)
	b := randomDataset(rng, 70, 2, 10)
	ca, err := Build(metric.Euclidean, a, Spec{Size: 5})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Build(metric.Euclidean, b, Spec{Size: 7})
	if err != nil {
		t.Fatal(err)
	}
	u := Union(ca, cb)
	if len(u) != 12 {
		t.Fatalf("union size = %d, want 12", len(u))
	}
	if got := u.TotalWeight(); got != 120 {
		t.Errorf("union total weight = %d, want 120", got)
	}
	up := UnionPoints(ca, cb)
	if len(up) != 12 {
		t.Errorf("union points size = %d, want 12", len(up))
	}
	// nil coresets are skipped.
	if got := len(Union(nil, ca, nil)); got != 5 {
		t.Errorf("union with nils = %d, want 5", got)
	}
	if got := len(UnionPoints(nil, cb)); got != 7 {
		t.Errorf("union points with nils = %d, want 7", got)
	}
}

func TestMaxProxyRadius(t *testing.T) {
	a := &Coreset{ProxyRadius: 2}
	b := &Coreset{ProxyRadius: 5}
	if got := MaxProxyRadius(a, b, nil); got != 5 {
		t.Errorf("MaxProxyRadius = %v, want 5", got)
	}
	if got := MaxProxyRadius(); got != 0 {
		t.Errorf("MaxProxyRadius() = %v, want 0", got)
	}
}

func TestWeightedConversion(t *testing.T) {
	c := &Coreset{
		Points:  metric.Dataset{{1}, {2}},
		Weights: []int64{3, 4},
	}
	w := c.weighted()
	if len(w) != 2 || w[0].W != 3 || w[1].W != 4 {
		t.Errorf("weighted() = %v", w)
	}
	if w.TotalWeight() != 7 {
		t.Errorf("total weight = %d, want 7", w.TotalWeight())
	}
}

func TestTheoreticalSizeBound(t *testing.T) {
	if got := TheoreticalSizeBound(10, 1, 0); got != 10 {
		t.Errorf("D=0 bound = %v, want 10", got)
	}
	if got := TheoreticalSizeBound(10, 1, 2); got != 160 {
		t.Errorf("D=2 bound = %v, want 160", got)
	}
	if got := TheoreticalSizeBound(10, 0, 1); got != 40 {
		t.Errorf("eps=0 default bound = %v, want 40", got)
	}
	// Smaller eps means a larger bound.
	if TheoreticalSizeBound(5, 0.1, 2) <= TheoreticalSizeBound(5, 1, 2) {
		t.Error("bound should grow as eps shrinks")
	}
}

func TestBuildSizeLargerThanPartition(t *testing.T) {
	ds := metric.Dataset{{0}, {1}, {2}}
	c, err := Build(metric.Euclidean, ds, Spec{Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 {
		t.Errorf("size = %d, want 3 (capped at |partition|)", c.Size())
	}
	if c.ProxyRadius != 0 {
		t.Errorf("proxy radius = %v, want 0 when coreset = partition", c.ProxyRadius)
	}
}
