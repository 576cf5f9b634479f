package streaming

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coresetclustering/internal/metric"
)

// This file keeps the doubling algorithm with the scalar merge rule — one
// Distance(kept, candidate) call per pair, first match wins, and a separate
// minimum-pairwise pass where phi is bootstrapped — as the oracle the batched,
// fused production sweep must match bit for bit: same centers (the very same
// points), same order, same weights, same phi.

type refDoubling struct {
	space     metric.Space
	tau       int
	centers   metric.WeightedSet
	phi       float64
	initBuf   metric.Dataset
	processed int64
}

func (r *refDoubling) minPairwise() float64 {
	return metric.NewEngine(1).MinPairwiseDistance(r.space, r.centers.Points())
}

func (r *refDoubling) process(p metric.Point) {
	r.processed++
	if r.centers == nil {
		r.initBuf = append(r.initBuf, p)
		if len(r.initBuf) == r.tau+1 {
			r.initialize()
		}
		return
	}
	s, closest := r.space.ArgNearest(p, r.centers.Points())
	if r.space.FromSurrogate(s) <= 8*r.phi {
		r.centers[closest].W++
		return
	}
	r.centers = append(r.centers, metric.WeightedPoint{P: p, W: 1})
	for len(r.centers) > r.tau {
		r.merge()
	}
}

func (r *refDoubling) initialize() {
	r.centers = metric.Unweighted(r.initBuf)
	r.initBuf = nil
	r.mergeCloserThan(0)
	minDist := r.minPairwise()
	if math.IsInf(minDist, 1) {
		r.phi = 0
		return
	}
	r.phi = minDist / 2
	r.mergeCloserThan(4 * r.phi)
	for len(r.centers) > r.tau {
		r.merge()
	}
}

func (r *refDoubling) merge() {
	if r.phi == 0 {
		minDist := r.minPairwise()
		if math.IsInf(minDist, 1) {
			return
		}
		r.phi = minDist / 2
	} else {
		r.phi *= 2
	}
	r.mergeCloserThan(4 * r.phi)
}

// mergeCloserThan is the scalar merge rule.
func (r *refDoubling) mergeCloserThan(threshold float64) {
	kept := make(metric.WeightedSet, 0, len(r.centers))
	for _, c := range r.centers {
		merged := false
		for i := range kept {
			if r.space.Distance(kept[i].P, c.P) <= threshold {
				kept[i].W += c.W
				merged = true
				break
			}
		}
		if !merged {
			kept = append(kept, c)
		}
	}
	r.centers = kept
}

// refMergeDoublings is MergeDoublings over the oracle: raw replay while every
// shard is buffering, else union, duplicate fold, one round if invariant (b)
// is violated, then rounds until the budget holds.
func refMergeDoublings(rs ...*refDoubling) *refDoubling {
	out := &refDoubling{space: rs[0].space, tau: rs[0].tau}
	anyInitialized := false
	for _, r := range rs {
		anyInitialized = anyInitialized || r.centers != nil
	}
	if !anyInitialized {
		for _, r := range rs {
			for _, p := range r.initBuf {
				out.process(p)
			}
		}
		return out
	}
	out.centers = metric.WeightedSet{}
	for _, r := range rs {
		out.processed += r.processed
		if r.centers != nil {
			out.phi = math.Max(out.phi, r.phi)
			out.centers = append(out.centers, r.centers...)
		} else {
			out.centers = append(out.centers, metric.Unweighted(r.initBuf)...)
		}
	}
	out.mergeCloserThan(0)
	if out.minPairwise() <= 4*out.phi {
		out.merge()
	}
	for len(out.centers) > out.tau {
		out.merge()
	}
	return out
}

// assertMatchesReference compares the complete state: phase, buffered points,
// centers by identity (the same retained point, not merely equal
// coordinates), order, weights, phi to the bit, processed count.
func assertMatchesReference(t *testing.T, what string, d *Doubling, r *refDoubling) {
	t.Helper()
	if d.Initialized() != (r.centers != nil) {
		t.Fatalf("%s: initialized %v, reference %v", what, d.Initialized(), r.centers != nil)
	}
	if d.processed != r.processed {
		t.Fatalf("%s: processed %d, reference %d", what, d.processed, r.processed)
	}
	if math.Float64bits(d.phi) != math.Float64bits(r.phi) {
		t.Fatalf("%s: phi %v, reference %v", what, d.phi, r.phi)
	}
	if len(d.initBuf) != len(r.initBuf) {
		t.Fatalf("%s: %d buffered points, reference %d", what, len(d.initBuf), len(r.initBuf))
	}
	for i := range d.initBuf {
		if &d.initBuf[i][0] != &r.initBuf[i][0] {
			t.Fatalf("%s: buffered point %d is %v, reference %v", what, i, d.initBuf[i], r.initBuf[i])
		}
	}
	if len(d.centers) != len(r.centers) || len(d.pts) != len(d.centers) {
		t.Fatalf("%s: %d centers (%d in the point view), reference %d", what, len(d.centers), len(d.pts), len(r.centers))
	}
	for i, c := range d.centers {
		if &c.P[0] != &r.centers[i].P[0] || &d.pts[i][0] != &c.P[0] {
			t.Fatalf("%s: center %d is %v, reference %v", what, i, c.P, r.centers[i].P)
		}
		if c.W != r.centers[i].W {
			t.Fatalf("%s: center %d weighs %d, reference %d", what, i, c.W, r.centers[i].W)
		}
	}
}

// mergeRuleSpaces are the five built-in spaces, a symmetric adapter, and an
// adapter over a deliberately ASYMMETRIC function (exact on integers, so it
// ties as often as the metrics do): the sweep evaluates Surrogate(survivor,
// candidate) in the scalar rule's argument order and must agree even then.
func mergeRuleSpaces() []metric.Space {
	return []metric.Space{
		metric.EuclideanSpace,
		metric.ManhattanSpace,
		metric.ChebyshevSpace,
		metric.AngularSpace,
		metric.CosineSpace,
		metric.SpaceFromDistance("minkowski1.5", metric.Minkowski(1.5)),
		metric.SpaceFromDistance("asymmetric", func(a, b metric.Point) float64 {
			return metric.Manhattan(a, b) + 0.25*math.Max(0, a[0]-b[0])
		}),
	}
}

// mergeRuleDatasets are streams built to make the merge rule's comparisons
// land exactly on their thresholds and its duplicate fold do real work.
func mergeRuleDatasets() map[string]metric.Dataset {
	rng := rand.New(rand.NewSource(16))
	shuffled := func(ds metric.Dataset) metric.Dataset {
		rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
		return ds
	}
	// A small integer lattice, every point three times: pairwise distances
	// take a handful of exactly representable values, phi is half of one of
	// them and 4*phi, 8*phi equal others.
	var grid metric.Dataset
	for rep := 0; rep < 3; rep++ {
		for x := 0; x < 7; x++ {
			for y := 0; y < 7; y++ {
				grid = append(grid, metric.Point{float64(x), float64(y), float64((x + y) % 2)})
			}
		}
	}
	// A prefix longer than any tested budget drawn from three locations, then
	// integers spreading out.
	var dupPrefix metric.Dataset
	for i := 0; i < 40; i++ {
		dupPrefix = append(dupPrefix, metric.Point{float64(i % 3), 1, 2})
	}
	for i := 0; i < 120; i++ {
		dupPrefix = append(dupPrefix, metric.Point{float64(rng.Intn(1 + i)), float64(rng.Intn(9)), float64(rng.Intn(5))})
	}
	// All-coincident start (phi stays 0), then a slow escape from it.
	var coincident metric.Dataset
	for i := 0; i < 50; i++ {
		coincident = append(coincident, metric.Point{3, 3, 3})
	}
	for i := 0; i < 60; i++ {
		coincident = append(coincident, metric.Point{3 + float64(i/4), 3, 3 - float64(i%4)})
	}
	// 1e150-magnitude coordinates (squares near 1e300) mixed with unit-scale
	// ones.
	var huge metric.Dataset
	for i := 0; i < 90; i++ {
		p := metric.Point{float64(rng.Intn(6)), float64(rng.Intn(6)), float64(1 + rng.Intn(3))}
		if i%3 == 0 {
			p = p.Scale(1e150)
		}
		huge = append(huge, p)
	}
	uniform := make(metric.Dataset, 200)
	for i := range uniform {
		uniform[i] = metric.Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return map[string]metric.Dataset{
		"grid":       shuffled(grid),
		"dupPrefix":  dupPrefix,
		"coincident": coincident,
		"huge":       shuffled(huge),
		"uniform":    uniform,
	}
}

// TestMergeRuleMatchesReference drives the production Doubling and the scalar
// oracle side by side through Process (hence initialize and every merge
// round), through MergeDoublings in its replay, mixed and union forms, and
// through single sweeps at thresholds equal to pairwise distances.
func TestMergeRuleMatchesReference(t *testing.T) {
	datasets := mergeRuleDatasets()
	for _, sp := range mergeRuleSpaces() {
		for name, ds := range datasets {
			for _, tau := range []int{1, 2, 5, 16} {
				t.Run(fmt.Sprintf("%s/%s/tau=%d", sp.Name(), name, tau), func(t *testing.T) {
					d, err := NewDoublingIn(sp, tau)
					if err != nil {
						t.Fatal(err)
					}
					r := &refDoubling{space: sp, tau: tau}
					for i, p := range ds {
						if err := d.Process(p); err != nil {
							t.Fatal(err)
						}
						r.process(p)
						assertMatchesReference(t, fmt.Sprintf("after point %d", i), d, r)
					}

					// Shards of very different lengths: with the short cuts
					// some (or all) shards are still buffering.
					for _, cuts := range [][]int{{len(ds) / 3, 2 * len(ds) / 3}, {tau / 2, tau}, {tau / 2, len(ds) / 2}} {
						var shards []*Doubling
						var refs []*refDoubling
						lo := 0
						for _, hi := range append(cuts, min(len(ds), cuts[len(cuts)-1]+tau+40)) {
							sd, _ := NewDoublingIn(sp, tau)
							sr := &refDoubling{space: sp, tau: tau}
							for _, p := range ds[lo:hi] {
								if err := sd.Process(p); err != nil {
									t.Fatal(err)
								}
								sr.process(p)
							}
							shards, refs, lo = append(shards, sd), append(refs, sr), hi
						}
						merged, err := MergeDoublings(shards...)
						if err != nil {
							t.Fatal(err)
						}
						assertMatchesReference(t, fmt.Sprintf("merge at cuts %v", cuts), merged, refMergeDoublings(refs...))
						for i := range shards {
							assertMatchesReference(t, fmt.Sprintf("shard %d after the merge", i), shards[i], refs[i])
						}
					}
				})
			}
		}
	}
}

// TestMergeSweepAtExactThresholds runs single sweeps over a whole dataset at
// thresholds that ARE pairwise distances of it (so <= decides on equality),
// and checks the survivors and the fused minimum against the scalar rule
// followed by the engine's minimum-pairwise pass.
func TestMergeSweepAtExactThresholds(t *testing.T) {
	for _, sp := range mergeRuleSpaces() {
		for name, ds := range mergeRuleDatasets() {
			thresholds := []float64{0}
			for i := 1; i < len(ds); i += 1 + len(ds)/8 {
				thresholds = append(thresholds, sp.Distance(ds[0], ds[i]), sp.Distance(ds[i], ds[i-1]))
			}
			for _, thr := range thresholds {
				d := &Doubling{space: sp, tau: len(ds), centers: metric.Unweighted(ds), pts: append(metric.Dataset(nil), ds...)}
				r := &refDoubling{space: sp, tau: len(ds), centers: metric.Unweighted(ds)}
				d.processed, r.processed = int64(len(ds)), int64(len(ds))
				got := d.mergeCloserThan(thr, nil)
				r.mergeCloserThan(thr)
				what := fmt.Sprintf("%s/%s threshold %v", sp.Name(), name, thr)
				assertMatchesReference(t, what, d, r)
				if want := r.minPairwise(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: fused minimum %v, reference %v", what, got, want)
				}
			}
		}
	}
}

// clone copies the oracle's headers, as Doubling.Clone does.
func (r *refDoubling) clone() *refDoubling {
	cp := *r
	cp.centers = slices.Clone(r.centers)
	cp.initBuf = slices.Clone(r.initBuf)
	return &cp
}

// tieGridStream is a drifting stream on the integer lattice: a 40x40 slab of
// integer points climbing one unit in z every 40 points, so distances take a
// handful of exactly representable values and ties between centers are the
// rule, not the exception.
func tieGridStream(seed int64, n int) metric.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := make(metric.Dataset, n)
	for i := range ds {
		ds[i] = metric.Point{float64(rng.Intn(40)), float64(rng.Intn(40)), float64(i/40 + rng.Intn(3))}
	}
	return ds
}

// TestNearestIndexMatchesReference drives the production Doubling, whose
// update rule answers from the pivot index once it pays, beside the oracle,
// whose update rule scans with ArgNearest, over drifting streams long enough
// to build, grow, refresh, discard, drop and rebuild the index; and again
// through a mid-stream Clone and a State -> Restore round trip that keep
// processing. Every batch must leave the two in the same state, bit for bit.
// On AngularSpace (whose chain declines) and CosineSpace (no Pruner) the
// index must never be built.
func TestNearestIndexMatchesReference(t *testing.T) {
	const tau, batch = 400, 100
	streams := map[string]metric.Dataset{
		"blobs": driftingStream(7, 6000, 16, 40, 0.05),
		"grid":  tieGridStream(8, 6000),
		// One blob: every center is about as far from a point as any other,
		// so the index cannot pay and is dropped.
		"noise": driftingStream(9, 6000, 8, 1, 0.03),
	}
	var total nearStats
	rebuilt := false
	for _, sp := range []metric.Space{metric.EuclideanSpace, metric.ManhattanSpace, metric.ChebyshevSpace, metric.AngularSpace, metric.CosineSpace} {
		for name, ds := range streams {
			t.Run(sp.Name()+"/"+name, func(t *testing.T) {
				d, err := NewDoublingIn(sp, tau)
				if err != nil {
					t.Fatal(err)
				}
				r := &refDoubling{space: sp, tau: tau}
				// The three lineages: the original throughout, a clone taken
				// at the first third, a restored state at the second.
				type pair struct {
					d *Doubling
					r *refDoubling
				}
				lines := []pair{{d, r}}
				most := 0
				for lo := 0; lo < len(ds); lo += batch {
					switch lo {
					case len(ds) / 3 / batch * batch:
						lines = append(lines, pair{d.Clone(), r.clone()})
					case 2 * len(ds) / 3 / batch * batch:
						rd, err := RestoreDoublingIn(sp, d.State())
						if err != nil {
							t.Fatal(err)
						}
						lines = append(lines, pair{rd, r.clone()})
					}
					for i, l := range lines {
						for _, p := range ds[lo:min(lo+batch, len(ds))] {
							if err := l.d.Process(p); err != nil {
								t.Fatal(err)
							}
							l.r.process(p)
						}
						assertMatchesReference(t, fmt.Sprintf("lineage %d after point %d", i, lo+batch), l.d, l.r)
					}
					most = max(most, len(d.centers))
				}
				if most < 300 {
					t.Errorf("the stream held at most %d centers; the test needs at least 300", most)
				}
				for _, l := range lines {
					s := l.d.nearStats
					if sp == metric.AngularSpace || sp == metric.CosineSpace {
						if s.builds != 0 {
							t.Errorf("the index was built %d times on a space that cannot chain", s.builds)
						}
						continue
					}
					total.builds += s.builds
					rebuilt = rebuilt || s.builds > 1
					total.adds += s.adds
					total.refreshes += s.refreshes
					total.discards += s.discards
					total.drops += s.drops
				}
			})
		}
	}
	t.Logf("index transitions over all runs: %+v", total)
	if !rebuilt || total.adds == 0 || total.refreshes == 0 || total.discards == 0 || total.drops == 0 {
		t.Errorf("some index transition never ran (a rebuild: %v): %+v", rebuilt, total)
	}
}

// TestInitializeWalkMatchesReference runs initialisation's two merges — the
// sweep at 0 recording pairs, the merge at 4*phi walking them — over whole
// datasets and checks the survivors against the scalar rule's two sweeps. A
// 7x7x7 lattice, whose pairs tie at the minimum and at its small multiples,
// overflows the log and must fall back to the full sweep; the drifting
// 16-dimensional stream must walk. Both datasets then go through Process
// beside the oracle, initialisation and all.
func TestInitializeWalkMatchesReference(t *testing.T) {
	var lattice metric.Dataset
	for x := 0; x < 7; x++ {
		for y := 0; y < 7; y++ {
			for z := 0; z < 7; z++ {
				lattice = append(lattice, metric.Point{float64(x), float64(y), float64(z)})
			}
		}
	}
	rand.New(rand.NewSource(3)).Shuffle(len(lattice), func(i, j int) { lattice[i], lattice[j] = lattice[j], lattice[i] })
	datasets := mergeRuleDatasets()
	datasets["lattice"] = lattice
	datasets["drift"] = driftingStream(3, 321, 16, 40, 5e-4)
	walked, fell := map[string]bool{}, map[string]bool{}
	for _, sp := range mergeRuleSpaces() {
		for name, ds := range datasets {
			d := &Doubling{space: sp, tau: len(ds), centers: metric.Unweighted(ds), pts: append(metric.Dataset(nil), ds...)}
			r := &refDoubling{space: sp, tau: len(ds), centers: metric.Unweighted(ds)}
			d.processed, r.processed = int64(len(ds)), int64(len(ds))
			var log pairLog
			minDist := d.mergeCloserThan(0, &log)
			r.mergeCloserThan(0)
			what := fmt.Sprintf("%s/%s", sp.Name(), name)
			assertMatchesReference(t, what+" after the sweep at 0", d, r)
			if len(d.centers) < 2 {
				continue
			}
			d.phi = halfOf(minDist)
			r.phi = d.phi
			walk := log.ready
			d.mergeCloserThan(4*d.phi, &log)
			r.mergeCloserThan(4 * r.phi)
			assertMatchesReference(t, fmt.Sprintf("%s after the merge at 4*phi (walked: %v)", what, walk), d, r)
			walked[name] = walked[name] || walk
			fell[name] = fell[name] || log.full
		}
	}
	if !walked["drift"] || fell["drift"] {
		t.Errorf("the drifting stream did not walk its pairs on every space (walked on some: %v, fell back on some: %v)", walked["drift"], fell["drift"])
	}
	if !fell["lattice"] {
		t.Error("the lattice never overflowed the pair log")
	}

	for _, name := range []string{"lattice", "drift"} {
		ds := datasets[name]
		for _, tau := range []int{len(ds) - 1, len(ds) / 2} {
			d, err := NewDoublingIn(metric.EuclideanSpace, tau)
			if err != nil {
				t.Fatal(err)
			}
			r := &refDoubling{space: metric.EuclideanSpace, tau: tau}
			for i, p := range ds {
				if err := d.Process(p); err != nil {
					t.Fatal(err)
				}
				r.process(p)
				assertMatchesReference(t, fmt.Sprintf("%s, tau=%d, after point %d", name, tau, i), d, r)
			}
		}
	}
}
