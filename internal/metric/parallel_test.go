package metric

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func randDataset(n, dim int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := make(Dataset, n)
	for i := range ds {
		p := make(Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		ds[i] = p
	}
	return ds
}

// TestChunkRangesCoverDisjoint checks that the chunking is a disjoint cover
// of [0, n) in ascending order for a grid of sizes and worker counts.
func TestChunkRangesCoverDisjoint(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 257, 1000, 4096, 100000} {
		for _, w := range []int{1, 2, 3, 7, 8, 64} {
			chunks := chunkRanges(n, w, minChunk)
			if n == 0 {
				if chunks != nil {
					t.Fatalf("chunkRanges(%d,%d) = %v, want nil", n, w, chunks)
				}
				continue
			}
			if len(chunks) > w {
				t.Fatalf("chunkRanges(%d,%d): %d chunks exceeds %d workers", n, w, len(chunks), w)
			}
			next := 0
			for ci, ch := range chunks {
				if ch[0] != next {
					t.Fatalf("chunkRanges(%d,%d): chunk %d starts at %d, want %d", n, w, ci, ch[0], next)
				}
				if ch[1] <= ch[0] {
					t.Fatalf("chunkRanges(%d,%d): empty chunk %d: %v", n, w, ci, ch)
				}
				next = ch[1]
			}
			if next != n {
				t.Fatalf("chunkRanges(%d,%d): covers [0,%d), want [0,%d)", n, w, next, n)
			}
			if w > 1 && n >= 2*minChunk {
				for ci, ch := range chunks {
					if ch[1]-ch[0] < minChunk {
						t.Fatalf("chunkRanges(%d,%d): chunk %d shorter than minChunk: %v", n, w, ci, ch)
					}
				}
			}
		}
	}
}

// TestParallelKernelsMatchSequential is the core bit-identity check: for a
// grid of sizes straddling the sequential cutoff and several worker counts,
// every parallel kernel must return exactly what its sequential counterpart
// returns, including argmin indices on inputs with duplicated points
// (ties must resolve to the lowest index).
func TestParallelKernelsMatchSequential(t *testing.T) {
	for _, n := range []int{1, 7, 100, 600, 3000, 9000} {
		ds := randDataset(n, 5, int64(n))
		// Duplicate a few points to force distance ties.
		for i := 3; i+10 < len(ds); i += 10 {
			ds[i+7] = ds[i].Clone()
		}
		centers := ds[:minInt(9, n)]
		query := ds[n/2]
		wantDist, wantIdx := DistanceToSet(Euclidean, query, ds)
		wantAssign := Assign(Euclidean, ds, centers)
		wantRadius := Radius(Euclidean, ds, centers)
		wantExcl := RadiusExcluding(Euclidean, ds.Clone(), centers, n/10)
		minD := make([]float64, n)
		for i, p := range ds {
			minD[i], _ = DistanceToSet(Euclidean, p, centers)
		}

		for _, w := range []int{0, 1, 2, 3, 8} {
			e := NewEngine(w)
			if d, i := e.DistanceToSet(EuclideanSpace, query, ds); d != wantDist || i != wantIdx {
				t.Fatalf("n=%d w=%d DistanceToSet = (%v,%d), want (%v,%d)", n, w, d, i, wantDist, wantIdx)
			}
			got := e.Assign(EuclideanSpace, ds, centers)
			for i := range got {
				if got[i] != wantAssign[i] {
					t.Fatalf("n=%d w=%d Assign[%d] = %d, want %d", n, w, i, got[i], wantAssign[i])
				}
			}
			if r := e.Radius(EuclideanSpace, ds, centers); r != wantRadius {
				t.Fatalf("n=%d w=%d Radius = %v, want %v", n, w, r, wantRadius)
			}
			if r := e.RadiusExcluding(EuclideanSpace, ds.Clone(), centers, n/10); r != wantExcl {
				t.Fatalf("n=%d w=%d RadiusExcluding = %v, want %v", n, w, r, wantExcl)
			}
			gd, gi := e.NearestBatch(EuclideanSpace, ds, centers)
			for i := range gd {
				if gd[i] != minD[i] {
					t.Fatalf("n=%d w=%d NearestBatch dist[%d] = %v, want %v", n, w, i, gd[i], minD[i])
				}
				if gi[i] != wantAssign[i] {
					t.Fatalf("n=%d w=%d NearestBatch idx[%d] = %d, want %d", n, w, i, gi[i], wantAssign[i])
				}
			}
		}
	}
}

// TestParallelKernelsEdgeCases checks the documented degenerate behaviours.
func TestParallelKernelsEdgeCases(t *testing.T) {
	e := NewEngine(4)
	ds := randDataset(50, 3, 1)
	if d, i := e.DistanceToSet(EuclideanSpace, ds[0], nil); !math.IsInf(d, 1) || i != -1 {
		t.Fatalf("DistanceToSet on empty set = (%v,%d), want (+Inf,-1)", d, i)
	}
	if r := e.Radius(EuclideanSpace, nil, ds[:3]); r != 0 {
		t.Fatalf("Radius of empty points = %v, want 0", r)
	}
	if r := e.RadiusExcluding(EuclideanSpace, ds, ds[:3], len(ds)); r != 0 {
		t.Fatalf("RadiusExcluding with z >= n = %v, want 0", r)
	}
	if got := e.Assign(EuclideanSpace, nil, ds[:3]); len(got) != 0 {
		t.Fatalf("Assign of empty points = %v, want empty", got)
	}
}

// TestForEachChunkCostScalesChunking: expensive items justify chunks far
// shorter than minChunk, down to a single item, while the plain chunking
// would collapse the same n to one chunk.
func TestForEachChunkCostScalesChunking(t *testing.T) {
	e := NewEngine(8)
	n := 300 // below minChunk*2, so plain chunking is sequential
	if nc := e.NumChunks(n); nc != 1 {
		t.Fatalf("NumChunks(%d) = %d, want 1", n, nc)
	}
	if nc := e.NumChunksCost(n, n); nc != 8 {
		t.Fatalf("NumChunksCost(%d, %d) = %d, want 8", n, n, nc)
	}
	visited := make([]int32, n)
	e.ForEachChunkCost(n, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			visited[i]++
		}
	})
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestEngineWorkers checks the worker-count normalisation.
func TestEngineWorkers(t *testing.T) {
	if w := NewEngine(5).Workers(); w != 5 {
		t.Fatalf("Workers() = %d, want 5", w)
	}
	if w := NewEngine(0).Workers(); w < 1 {
		t.Fatalf("Workers() = %d for auto, want >= 1", w)
	}
	var zero Engine
	if w := zero.Workers(); w < 1 {
		t.Fatalf("zero-value Workers() = %d, want >= 1", w)
	}
}

// TestForEachChunkRunsAllChunks checks that every index is visited exactly
// once, whatever goroutine interleaving occurs.
func TestForEachChunkRunsAllChunks(t *testing.T) {
	e := NewEngine(7)
	n := 10000
	visited := make([]int32, n)
	var mu sync.Mutex
	seenChunks := map[int]bool{}
	e.ForEachChunk(n, func(chunk, lo, hi int) {
		mu.Lock()
		seenChunks[chunk] = true
		mu.Unlock()
		for i := lo; i < hi; i++ {
			visited[i]++ // indices are disjoint across chunks, no race
		}
	})
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
	if len(seenChunks) != e.NumChunks(n) {
		t.Fatalf("ran %d chunks, NumChunks reports %d", len(seenChunks), e.NumChunks(n))
	}
}

// TestEngineConcurrentCallers is the pool stress test: many goroutines
// hammer the same Engine value with every kernel concurrently and each
// verifies bit-identity with the sequential path. Run under -race this
// proves the engine adds no shared mutable state across callers.
func TestEngineConcurrentCallers(t *testing.T) {
	ds := randDataset(4000, 4, 99)
	centers := ds[:7]
	wantAssign := Assign(Euclidean, ds, centers)
	wantRadius := Radius(Euclidean, ds, centers)
	e := NewEngine(4)

	const callers = 16
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				if r := e.Radius(EuclideanSpace, ds, centers); r != wantRadius {
					errc <- errMismatch("Radius", c, iter)
					return
				}
				got := e.Assign(EuclideanSpace, ds, centers)
				for i := range got {
					if got[i] != wantAssign[i] {
						errc <- errMismatch("Assign", c, iter)
						return
					}
				}
				d, i := e.DistanceToSet(EuclideanSpace, ds[c], ds)
				if i != c || d != 0 {
					errc <- errMismatch("DistanceToSet", c, iter)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

type stressErr struct {
	kernel      string
	caller, rep int
}

func (e stressErr) Error() string { return e.kernel + " mismatch under concurrency" }

func errMismatch(kernel string, caller, rep int) error {
	return stressErr{kernel: kernel, caller: caller, rep: rep}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// hintFixtures are the inputs of TestHintedNearestMatchesDense: an integer
// lattice (exact ties between centres everywhere), a few distinct points many
// times over with the centres drawn from the copies (coincident centres,
// points at distance exactly zero), and Gaussian blobs (the shape the pass is
// for). Each returns points and the centres among them.
func hintFixtures() []struct {
	name            string
	points, centers Dataset
} {
	lattice := make(Dataset, 3000)
	for i := range lattice {
		lattice[i] = Point{float64(1 + i%11), float64(1 + (i/11)%13), float64(1 + (i/143)%7)}
	}
	distinct := randDataset(9, 4, 21)
	dups := make(Dataset, 3000)
	for i := range dups {
		dups[i] = distinct[(i*i+i/5)%len(distinct)]
	}
	rng := rand.New(rand.NewSource(22))
	blobs := make(Dataset, 3200)
	for i := range blobs {
		p := make(Point, 8)
		for j := range p {
			p[j] = 10 + 12*float64((i%16+j*j)%7) + rng.NormFloat64()
		}
		blobs[i] = p
	}
	pick := func(ds Dataset, k, stride int) Dataset {
		out := make(Dataset, k)
		for i := range out {
			out[i] = ds[(i*stride)%len(ds)]
		}
		return out
	}
	return []struct {
		name            string
		points, centers Dataset
	}{
		{"lattice", lattice, pick(lattice, 24, 127)},
		{"duplicates", dups, pick(dups, 20, 7)},
		{"gaussian", blobs, pick(blobs, 32, 101)},
	}
}

// TestHintedNearestMatchesDense: whatever the hints say — the truth, one fixed
// centre, the FARTHEST centre, noise, the answer for another centre set,
// indices that are no centre at all — every (surrogate bits, index) pair of
// the hinted pass is the row kernel's, on every space that can prune and at
// every worker count; the evaluations it reports are the ones a counting
// space sees; and true hints make it cheap while the worst ones cost at most
// one evaluation per point (plus the table) more than no hint.
func TestHintedNearestMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, fx := range hintFixtures() {
		n, k := len(fx.points), len(fx.centers)
		for _, sp := range prunerSpaces {
			wantS, wantI := make([]float64, n), make([]int, n)
			farthest, other := make([]int, n), make([]int, n)
			shifted := append(fx.centers[k/2:k:k], fx.centers[:k/2]...)
			for i, p := range fx.points {
				wantS[i], wantI[i] = sp.ArgNearest(p, fx.centers)
				for j, c := range fx.centers {
					if sp.Surrogate(p, c) >= sp.Surrogate(p, fx.centers[farthest[i]]) {
						farthest[i] = j
					}
				}
				_, other[i] = sp.ArgNearest(p, shifted)
			}
			noise, invalid := make([]int, n), make([]int, n)
			for i := range noise {
				noise[i] = rng.Intn(k)
				invalid[i] = []int{-1, k, k + 7, -1 << 40}[i%4]
			}
			for _, h := range []struct {
				name  string
				hints []int
			}{
				{"correct", wantI}, {"all-zero", make([]int, n)}, {"farthest", farthest},
				{"random", noise}, {"other-centres", other}, {"invalid", invalid},
			} {
				for _, w := range []int{1, 2, 8} {
					label := fx.name + "/" + sp.Name() + "/" + h.name
					cs := NewCountingSpace(sp)
					gotS, gotI, evals := NewEngine(w).hintedNearest(cs, PrunerOf(cs), fx.points, fx.centers, h.hints)
					for i := range wantS {
						if math.Float64bits(gotS[i]) != math.Float64bits(wantS[i]) || gotI[i] != wantI[i] {
							t.Fatalf("%s w=%d: point %d hinted %d = (%v, %d), want (%v, %d)", label, w, i, h.hints[i], gotS[i], gotI[i], wantS[i], wantI[i])
						}
					}
					if seen := cs.Evaluations(); seen != evals {
						t.Fatalf("%s w=%d: %d evaluations reported, the counting space saw %d", label, w, evals, seen)
					}
					if worst := int64(n*(k+1) + k*k); evals > worst {
						t.Fatalf("%s w=%d: %d evaluations, a useless hint may cost at most %d", label, w, evals, worst)
					}
					if h.name == "correct" && fx.name == "gaussian" && sp != AngularSpace && evals > int64(n*k/4) {
						t.Fatalf("%s w=%d: %d evaluations with true hints on clustered input, want under a quarter of n*k = %d", label, w, evals, n*k)
					}
				}
			}
		}
	}
}

// TestNearestRadiusTakesHintsOnlyWhereSound: the hinted pass is taken with
// hints, a pruning space and k*k <= n — and gives NearestRadius's dense
// answers there. CosineSpace (no triangle inequality), the SpaceFromDistance
// adapter (a Counter must see exactly n*k calls), a call without hints and a
// centre set too large for the table to pay stay on the dense pass, and do not
// even ask for the hints.
func TestNearestRadiusTakesHintsOnlyWhereSound(t *testing.T) {
	fx := hintFixtures()[2]
	n, k := len(fx.points), len(fx.centers)
	eng := NewEngine(2)
	asked := 0
	hints := func() []int {
		asked++
		return eng.Assign(EuclideanSpace, fx.points, fx.centers)
	}
	for _, z := range []int{0, 25} {
		wantD, wantI, wantR, dense := eng.NearestRadius(EuclideanSpace, fx.points, fx.centers, z, nil)
		gotD, gotI, gotR, evals := eng.NearestRadius(EuclideanSpace, fx.points, fx.centers, z, hints)
		if dense != int64(n*k) || evals >= dense/4 {
			t.Fatalf("z=%d: dense pass reports %d evaluations, hinted %d; want n*k = %d and under a quarter of it", z, dense, evals, n*k)
		}
		if math.Float64bits(gotR) != math.Float64bits(wantR) {
			t.Fatalf("z=%d: hinted radius %v, dense %v", z, gotR, wantR)
		}
		for i := range wantD {
			if math.Float64bits(gotD[i]) != math.Float64bits(wantD[i]) || gotI[i] != wantI[i] {
				t.Fatalf("z=%d: point %d = (%v, %d), dense (%v, %d)", z, i, gotD[i], gotI[i], wantD[i], wantI[i])
			}
		}
	}
	if asked != 2 {
		t.Fatalf("hints asked for %d times by two hinted passes", asked)
	}

	counter := NewCounter(Euclidean)
	for _, tc := range []struct {
		name    string
		sp      Space
		centers Dataset
	}{
		{"cosine", NewCountingSpace(CosineSpace), fx.centers},
		{"adapter", SpaceFor(counter.Distance), fx.centers},
		{"k*k > n", NewCountingSpace(EuclideanSpace), fx.points[:57]},
	} {
		asked = 0
		_, _, _, evals := eng.NearestRadius(tc.sp, fx.points, tc.centers, 0, hints)
		want := int64(n * len(tc.centers))
		seen := counter.Calls()
		if cs, ok := tc.sp.(*CountingSpace); ok {
			seen = cs.Evaluations()
		}
		if asked != 0 || evals != want || seen != want {
			t.Fatalf("%s: hints asked %d times, %d evaluations reported, %d seen; want the dense pass, n*k = %d", tc.name, asked, evals, seen, want)
		}
	}
}
