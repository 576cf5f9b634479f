package metric

import (
	"math"
	"math/rand"
	"testing"
)

// half is the scalar form of HalfSurrogates.
func half(pr Pruner, s float64, dim int) float64 {
	v := []float64{s}
	pr.HalfSurrogates(v, dim)
	return v[0]
}

// prunerSpaces are the spaces that declare the capability.
var prunerSpaces = []Space{EuclideanSpace, ManhattanSpace, ChebyshevSpace, AngularSpace}

// TestPrunerOfDeclaresCapability pins which spaces opt in: the four metrics
// do, CosineSpace (no triangle inequality) and the SpaceFromDistance adapter
// (no rounding promise; Counter-based budgets) do not, and CountingSpace
// forwards whatever it wraps.
func TestPrunerOfDeclaresCapability(t *testing.T) {
	for _, sp := range prunerSpaces {
		if PrunerOf(sp) == nil {
			t.Errorf("%s: no pruning capability", sp.Name())
		}
		if PrunerOf(NewCountingSpace(sp)) == nil {
			t.Errorf("counting(%s): capability not forwarded", sp.Name())
		}
	}
	for _, sp := range []Space{CosineSpace, SpaceFromDistance("custom", Euclidean), SpaceFor(NewCounter(Euclidean).Distance)} {
		if PrunerOf(sp) != nil {
			t.Errorf("%s: must not declare the pruning capability", sp.Name())
		}
		if PrunerOf(NewCountingSpace(sp)) != nil {
			t.Errorf("counting(%s): must not declare the pruning capability", sp.Name())
		}
	}
}

// TestHalfSurrogatesContract is the property the pruned GMM phase and the
// hinted nearest-centre pass stand on: whenever
// Surrogate(p, b) < h(Surrogate(c, b)) for COMPUTED surrogates, the computed
// Surrogate(c, p) is STRICTLY greater than Surrogate(p, b). Triples are
// adversarial: p sits on the segment (great circle, for the angular space) from b to c at
// half way plus or minus a few ulps to a few percent, where the triangle
// inequality is tight and rounding decides; coordinates span small integers
// (exact arithmetic, exact boundaries) to 1e150. The test also requires the
// bound to be useful: a point at 49% must pass it.
func TestHalfSurrogatesContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	offsets := []float64{0, 1e-16, -1e-16, 4e-16, -4e-16, 1e-14, -1e-14, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7, 1e-4, -1e-4, -0.02, 0.02}
	for _, sp := range prunerSpaces {
		pr := PrunerOf(sp)
		skipped, useful := 0, 0
		for trial := 0; trial < 4000; trial++ {
			dim := 1 + rng.Intn(20)
			scale := []float64{1, 1, 1e-3, 1e6, 1e150}[rng.Intn(5)]
			b, c := make(Point, dim), make(Point, dim)
			for j := range b {
				if trial%3 == 0 {
					b[j], c[j] = float64(1+rng.Intn(9)), float64(1+rng.Intn(9))
				} else {
					b[j], c[j] = scale*(1+rng.Float64()), scale*(1+rng.Float64())
				}
			}
			for _, off := range append(offsets, -0.01-0.4*rng.Float64()) {
				frac := 0.5 + off
				p := make(Point, dim)
				if sp == AngularSpace {
					// Spherical interpolation between the directions.
					nb, nc := math.Sqrt(squaredNorm(b)), math.Sqrt(squaredNorm(c))
					theta := math.Acos(math.Max(-1, math.Min(1, negCosine(b, c, squaredNorm(b))*-1)))
					if theta < 1e-9 {
						continue
					}
					wb, wc := math.Sin((1-frac)*theta)/math.Sin(theta), math.Sin(frac*theta)/math.Sin(theta)
					for j := range p {
						p[j] = wb*b[j]/nb + wc*c[j]/nc
					}
				} else {
					for j := range p {
						p[j] = b[j] + frac*(c[j]-b[j])
					}
				}
				sPB, sCB, sCP := sp.Surrogate(b, p), sp.Surrogate(c, b), sp.Surrogate(c, p)
				if sPB < half(pr, sCB, dim) {
					skipped++
					if !(sCP > sPB) {
						t.Fatalf("%s dim=%d frac=%v: skipped although the new center is not strictly farther: S(p,b)=%v S(c,b)=%v S(c,p)=%v\nb=%v\nc=%v\np=%v", sp.Name(), dim, frac, sPB, sCB, sCP, b, c, p)
					}
				}
				if off < -0.009 {
					useful++
					if !(sPB < half(pr, sCB, dim)) && sCB > 0 && sp.FromSurrogate(sCB) > 1e-6 {
						t.Fatalf("%s dim=%d frac=%v: a point well inside half the distance is not skipped: S(p,b)=%v h=%v", sp.Name(), dim, frac, sPB, half(pr, sCB, dim))
					}
				}
			}
		}
		if skipped == 0 || useful == 0 {
			t.Fatalf("%s: vacuous run (skipped=%d useful=%d)", sp.Name(), skipped, useful)
		}
	}
}

// TestHalfSurrogatesPromisesNothingOutsideItsRange: zero, denormal-range,
// overflowed and NaN surrogates become -Inf, which no cached surrogate is
// below.
func TestHalfSurrogatesPromisesNothingOutsideItsRange(t *testing.T) {
	for _, sp := range []Space{EuclideanSpace, ManhattanSpace, ChebyshevSpace} {
		pr := PrunerOf(sp)
		for _, s := range []float64{0, 5e-324, 1e-300, math.Inf(1), math.NaN(), -1} {
			if h := half(pr, s, 8); !math.IsInf(h, -1) {
				t.Errorf("%s: h(%v) = %v, want -Inf", sp.Name(), s, h)
			}
		}
		if h := half(pr, 4, 8); !(h > 0 && h < 4) {
			t.Errorf("%s: h(4) = %v, want inside (0, 4)", sp.Name(), h)
		}
	}
	pr := PrunerOf(AngularSpace)
	for _, s := range []float64{-1, -1 + 1e-15, math.Inf(1), math.NaN(), 1.5, -2} {
		if h := half(pr, s, 8); !math.IsInf(h, -1) {
			t.Errorf("angular: h(%v) = %v, want -Inf", s, h)
		}
	}
	// Opposite directions (surrogate 1, angle pi): half is a right angle,
	// surrogate 0, minus the slack.
	if h := half(pr, 1, 8); !(h < 0 && h > -1e-6) {
		t.Errorf("angular: h(1) = %v, want just below 0", h)
	}
}

// via is the scalar form of HalfSurrogatesVia.
func via(pr Pruner, s, reach float64, dim int) float64 {
	v := []float64{s}
	bound := []float64{reach}
	pr.ReachBounds(bound, dim)
	pr.HalfSurrogatesVia(v, bound, dim)
	return v[0]
}

// boundaryPoints are the inputs where rounding cannot hide a wrong
// inequality: a small integer lattice (every distance exact, 2*d(p,b) ==
// d(c,b) for many triples, the origin — the angular space's zero vector —
// included), every lattice point twice (coincident and duplicate centres),
// and the same lattice at magnitude 1e150 mixed in.
func boundaryPoints() Dataset {
	var pts Dataset
	for x := 0; x <= 4; x++ {
		for y := 0; y <= 3; y++ {
			pts = append(pts, Point{float64(x), float64(y)}, Point{float64(x), float64(y)})
			if (x+y)%3 == 1 {
				pts = append(pts, Point{1e150 * float64(x), 1e150 * float64(y)})
			}
		}
	}
	return pts
}

// TestPrunerIsStrictOnBoundaries runs contract 1 over every triple of the
// boundary inputs: a skipped centre is strictly farther, so it cannot even tie
// with the owner — what lets the hinted pass keep the lowest index without
// looking at the indices it skips.
func TestPrunerIsStrictOnBoundaries(t *testing.T) {
	pts := boundaryPoints()
	for _, sp := range prunerSpaces {
		pr := PrunerOf(sp)
		skipped, exact := 0, 0
		for _, b := range pts {
			for _, c := range pts {
				h := half(pr, sp.Surrogate(c, b), 2)
				for _, p := range pts {
					sPB := sp.Surrogate(p, b)
					if sp != AngularSpace && 2*sp.Distance(p, b) == sp.Distance(c, b) && sPB > 0 {
						exact++
						if sPB < h {
							t.Fatalf("%s: p=%v on the boundary between b=%v and c=%v is skipped", sp.Name(), p, b, c)
						}
					}
					if !(sPB < h) {
						continue
					}
					skipped++
					if sCP := sp.Surrogate(c, p); !(sCP > sPB) {
						t.Fatalf("%s: b=%v c=%v p=%v skipped with S(p,b)=%v < h=%v but S(c,p)=%v is not strictly greater", sp.Name(), b, c, p, sPB, h, sCP)
					}
				}
			}
		}
		if skipped == 0 || (sp != AngularSpace && exact == 0) {
			t.Fatalf("%s: vacuous run (skipped=%d, exact boundaries=%d)", sp.Name(), skipped, exact)
		}
	}
}

// TestHalfSurrogatesViaContract is contract 2: from the computed
// Surrogate(c, v) and a reach of at least the computed Surrogate(b, v), the
// chain answers at or below what HalfSurrogates answers for the pair (c, b)
// it never saw — over the boundary inputs (all triples) and over random
// triples from tiny to 1e150 — and for a point b that coincides with its pivot
// it is as sharp, up to the slack. The angular space declines.
func TestHalfSurrogatesViaContract(t *testing.T) {
	check := func(sp Space, c, v, b Point, slack float64) (promised bool) {
		t.Helper()
		pr := PrunerOf(sp)
		dim := len(c)
		got := via(pr, sp.Surrogate(c, v), sp.Surrogate(b, v)*slack, dim)
		if want := half(pr, sp.Surrogate(c, b), dim); !(got <= want) {
			t.Fatalf("%s: via(S(c,v), S(b,v)*%v) = %v exceeds h(S(c,b)) = %v\nc=%v\nv=%v\nb=%v", sp.Name(), slack, got, want, c, v, b)
		}
		return !math.IsInf(got, -1)
	}
	pts := boundaryPoints()
	rng := rand.New(rand.NewSource(11))
	for _, sp := range prunerSpaces {
		promised := 0
		for _, c := range pts {
			for _, v := range pts {
				for _, b := range pts {
					if check(sp, c, v, b, 1) {
						promised++
					}
				}
			}
		}
		for trial := 0; trial < 20000; trial++ {
			dim := 1 + rng.Intn(20)
			scale := []float64{1, 1e-3, 1e6, 1e150, 1e-140}[rng.Intn(5)]
			c, v, b := make(Point, dim), make(Point, dim), make(Point, dim)
			near := []float64{0, 1e-12, 1e-3, 0.3, 1.5}[rng.Intn(5)]
			for j := range c {
				c[j], v[j] = scale*(1+rng.Float64()), scale*(1+rng.Float64())
				b[j] = v[j] + near*scale*(rng.Float64()-0.5)
			}
			if check(sp, c, v, b, []float64{1, 1, 2}[rng.Intn(3)]) {
				promised++
				if sp == AngularSpace {
					t.Fatal("angular: the chain is documented to decline")
				}
			}
			if near == 0 && scale != 1e-140 && sp != AngularSpace {
				pr := PrunerOf(sp)
				got, want := via(pr, sp.Surrogate(c, v), sp.Surrogate(b, v), dim), half(pr, sp.Surrogate(c, b), dim)
				if !(got > want*(1-1e-9)) {
					t.Fatalf("%s: chain through a coincident pivot answers %v where the pair itself gives %v", sp.Name(), got, want)
				}
			}
		}
		if (promised == 0) != (sp == AngularSpace) {
			t.Fatalf("%s: %d promises", sp.Name(), promised)
		}
	}
}

// TestHalfSurrogatesViaPromisesNothingOutsideItsRange: zero, denormal-range,
// infinite and NaN inputs on either side, and a reach that leaves no positive
// difference, answer -Inf; a reach of -Inf (no member yet) or below the floor
// counts as the floor.
func TestHalfSurrogatesViaPromisesNothingOutsideItsRange(t *testing.T) {
	for _, sp := range []Space{EuclideanSpace, ManhattanSpace, ChebyshevSpace} {
		pr := PrunerOf(sp)
		for _, in := range [][2]float64{
			{0, 0}, {5e-324, 0}, {1e-300, 0}, {math.Inf(1), 1}, {math.NaN(), 1}, {-1, 0}, {math.MaxFloat64, 1},
			{4, math.Inf(1)}, {4, math.NaN()}, {4, 4}, {4, 5}, {4, 3.9999999999999996}, {2e-271, 1e-271},
		} {
			if h := via(pr, in[0], in[1], 8); !math.IsInf(h, -1) {
				t.Errorf("%s: via(%v, %v) = %v, want -Inf", sp.Name(), in[0], in[1], h)
			}
		}
		for _, reach := range []float64{math.Inf(-1), 0, 1e-300} {
			if h, direct := via(pr, 4, reach, 8), half(pr, 4, 8); !(h > 0 && h <= direct && h > direct*(1-1e-9)) {
				t.Errorf("%s: via(4, %v) = %v, want just below h(4) = %v", sp.Name(), reach, h, direct)
			}
		}
	}
}

// TestNearestRadiusMatchesTwoPasses: the fused pass returns exactly what
// Radius / RadiusExcluding and NearestBatch return, for half the evaluations
// of calling them in turn, at every worker count.
func TestNearestRadiusMatchesTwoPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points := make(Dataset, 3000)
	for i := range points {
		points[i] = randPoint(rng, 5)
	}
	centers := points[:17]
	for _, tc := range spaceCases {
		for _, w := range []int{1, 2, 8} {
			eng := NewEngine(w)
			for _, z := range []int{0, 1, 40, len(points) - 1, len(points), len(points) + 5} {
				cs := NewCountingSpace(tc.sp)
				dists, idxs, radius, evals := eng.NearestRadius(cs, points, centers, z, nil)
				if got, want := cs.Evaluations(), int64(len(points)*len(centers)); got != want || evals != want {
					t.Fatalf("%s w=%d z=%d: %d evaluations, %d reported, want n*k = %d", tc.sp.Name(), w, z, got, evals, want)
				}
				if want := eng.RadiusExcluding(tc.sp, points, centers, z); math.Float64bits(radius) != math.Float64bits(want) {
					t.Fatalf("%s w=%d z=%d: radius %v, want %v", tc.sp.Name(), w, z, radius, want)
				}
				wantD, wantI := eng.NearestBatch(tc.sp, points, centers)
				for i := range points {
					if math.Float64bits(dists[i]) != math.Float64bits(wantD[i]) || idxs[i] != wantI[i] {
						t.Fatalf("%s w=%d z=%d: point %d = (%v, %d), want (%v, %d)", tc.sp.Name(), w, z, i, dists[i], idxs[i], wantD[i], wantI[i])
					}
				}
			}
		}
	}
	if d, idx, r, _ := NewEngine(1).NearestRadius(EuclideanSpace, nil, centers, 0, nil); len(d) != 0 || len(idx) != 0 || r != 0 {
		t.Fatalf("empty input: got (%v, %v, %v)", d, idx, r)
	}
}
