package window

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"coresetclustering/internal/metric"
)

// driftSource emits a drifting mixture the way a live stream arrives: every
// batch is a fresh coordinate array holding its rows back to back. Blobs
// blob centres lie uniform in [0,100]^dim, blob c is drawn with weight
// proportional to 1/(c+1), and every centre moves drift per point along its
// own unit direction, so a budget-sized coreset stays busy.
type driftSource struct {
	rng     *rand.Rand
	dim     int
	centres []metric.Point
	dirs    []metric.Point
	cdf     []float64
	t       int // points emitted so far
}

func newDriftSource(seed int64, dim int) *driftSource {
	const blobs = 40
	s := &driftSource{rng: rand.New(rand.NewSource(seed)), dim: dim}
	var total float64
	for c := 0; c < blobs; c++ {
		centre, dir := make(metric.Point, dim), make(metric.Point, dim)
		var norm float64
		for j := range centre {
			centre[j] = s.rng.Float64() * 100
			dir[j] = s.rng.NormFloat64()
			norm += dir[j] * dir[j]
		}
		for j := range dir {
			dir[j] /= math.Sqrt(norm)
		}
		total += 1 / float64(c+1)
		s.centres, s.dirs, s.cdf = append(s.centres, centre), append(s.dirs, dir), append(s.cdf, total)
	}
	for c := range s.cdf {
		s.cdf[c] /= total
	}
	return s
}

// Next returns the next n points of the stream in one new backing array.
func (s *driftSource) Next(n int) metric.Dataset {
	const drift, sd = 5e-4, 2.0
	block := make([]float64, n*s.dim)
	out := make(metric.Dataset, n)
	for i := range out {
		c, _ := slices.BinarySearch(s.cdf, s.rng.Float64())
		c = min(c, len(s.cdf)-1)
		shift := drift * float64(s.t)
		s.t++
		p := block[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
		for j := range p {
			p[j] = s.centres[c][j] + shift*s.dirs[c][j] + sd*s.rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

// batchArrays records the address range of every batch array a test fed,
// sorted by start address, to say which batch (if any) a row lies in. It
// keeps every batch reachable: a freed array's addresses could otherwise be
// handed to a later batch or to a bucket's own block.
type batchArrays struct {
	lo, hi []uintptr
	keep   []metric.Dataset
}

func (a *batchArrays) add(batch metric.Dataset) {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(batch[0])))
	hi := lo + uintptr(len(batch)*len(batch[0]))*8
	i, _ := slices.BinarySearch(a.lo, lo)
	a.lo, a.hi = slices.Insert(a.lo, i, lo), slices.Insert(a.hi, i, hi)
	a.keep = append(a.keep, batch)
}

// find returns the index of the batch array holding p's first coordinate,
// or -1 when p lies in none of them.
func (a *batchArrays) find(p metric.Point) int {
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	i, found := slices.BinarySearch(a.lo, addr)
	if !found {
		i--
	}
	if i >= 0 && addr < a.hi[i] {
		return i
	}
	return -1
}

// TestReducedBucketsOwnTheirPoints checks that a window does not pin the
// ingest arrays of its whole span. Every bucket built by a reduction holds
// its survivors in a block of its own, so only the unreduced buckets still
// reference batch arrays, and those are the newest ones.
//
// Which buckets were built by a reduction: a doubling state buffers its first
// tau points and initialises on the next, and MergeDoublings' replay of two
// buffering states is again buffering unless it holds more than tau points.
// So a level-L bucket came out of mergeBucketStates' reduction exactly when
// its two halves of base<<(L-1) points could not both be buffering, that is
// from the level Lr, the least L >= 1 with base<<(L-1) > tau, upwards.
//
// The bound on the batch arrays referenced: at most chi sealed buckets exist
// per level, and levels do not increase towards the present, so the
// unreduced buckets (levels below Lr, plus the open one holding fewer than
// base points) are a contiguous run of the newest
// S <= chi*base*(2^Lr - 1) + base - 1 points. A run of S points meets at most
// ceil(S/B) + 1 batches of B points. Nothing here depends on W: at tau 320,
// base 80, chi 4 and B 256 the bound is 21 arrays for every window size.
func TestReducedBucketsOwnTheirPoints(t *testing.T) {
	const (
		tau   = 320
		dim   = 16
		batch = 256
	)
	for _, W := range []int64{10_000, 100_000} {
		if testing.Short() && W > 10_000 {
			continue
		}
		w := mustWindow(t, Config{Tau: tau, MaxCount: W})
		lr := 1
		for int64(w.base)<<(lr-1) <= tau {
			lr++
		}
		span := w.chi*w.base*(1<<lr-1) + w.base - 1
		bound := (span+batch-1)/batch + 1

		src := newDriftSource(11, dim)
		var arrays batchArrays
		reduced := 0
		for n := int64(0); n < 2*W; n += batch {
			pts := src.Next(batch)
			arrays.add(pts)
			feedCount(t, w, pts)

			seen := map[int]bool{}
			for _, b := range w.live() {
				byReduction := b.level >= lr
				if byReduction {
					reduced++
				}
				for _, p := range b.proc.AppendPoints(nil) {
					i := arrays.find(p)
					if i < 0 {
						continue
					}
					if byReduction {
						t.Fatalf("W=%d after %d points: a level-%d bucket built by reduction holds a row of batch array %d", W, n+batch, b.level, i)
					}
					seen[i] = true
				}
			}
			if len(seen) > bound {
				t.Fatalf("W=%d after %d points: live buckets reference %d batch arrays, bound %d", W, n+batch, len(seen), bound)
			}
		}
		if reduced == 0 {
			t.Fatalf("W=%d: no bucket was built by reduction", W)
		}
		if err := w.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}
