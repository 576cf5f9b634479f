package streaming

import (
	"errors"
	"fmt"
	"math"

	"coresetclustering/internal/metric"
)

// BaseOutliers re-implements the McCutchen–Khuller (2008) style streaming
// algorithm for the k-center problem WITH z outliers, the BASEOUTLIERS
// baseline of Figure 5. It runs m parallel guesses of the optimal radius;
// each guess maintains at most k confirmed centers plus a pool of "free"
// (not-yet-clustered) points of size at most (k+1)*(z+1). A new center is
// opened at a free point only once z+1 free points certify it (lie within 2r
// of it) — points that cannot gather such support are potential outliers.
// When a guess needs more than k centers or overflows its free pool it is
// restarted at twice the radius, re-inserting its previous state. Space is
// Theta(m*k*z); the approximation factor approaches 4+eps as m grows.
type BaseOutliers struct {
	k, z int
	m    int
	sp   metric.Space

	initBuf   metric.Dataset
	instances []*outlierInstance
	processed int64
}

// outlierInstance is one radius guess of BaseOutliers.
type outlierInstance struct {
	r       float64
	centers metric.Dataset
	free    metric.Dataset
}

// NewBaseOutliers returns a BaseOutliers on the metric space sp (nil defaults
// to Euclidean) with k centers, z outliers and m parallel guesses.
func NewBaseOutliers(sp metric.Space, k, z, m int) (*BaseOutliers, error) {
	if k < 1 {
		return nil, fmt.Errorf("streaming: k must be positive, got %d", k)
	}
	if z < 0 {
		return nil, fmt.Errorf("streaming: z must be non-negative, got %d", z)
	}
	if m < 1 {
		return nil, fmt.Errorf("streaming: m must be positive, got %d", m)
	}
	if sp == nil {
		sp = metric.EuclideanSpace
	}
	return &BaseOutliers{k: k, z: z, m: m, sp: sp}, nil
}

// distToSet is the true distance from p to the closest point of set (+Inf
// for an empty set), computed with the space's batched row kernel.
func (b *BaseOutliers) distToSet(p metric.Point, set metric.Dataset) float64 {
	s, _ := b.sp.ArgNearest(p, set)
	return b.sp.FromSurrogate(s)
}

// freeCap is the maximum size of the free pool of one guess instance.
func (b *BaseOutliers) freeCap() int { return (b.k + 1) * (b.z + 1) }

// Process implements Processor.
func (b *BaseOutliers) Process(p metric.Point) error {
	if p == nil {
		return errors.New("streaming: nil point")
	}
	b.processed++
	if b.instances == nil {
		b.initBuf = append(b.initBuf, p)
		if len(b.initBuf) < b.k+b.z+2 {
			return nil
		}
		b.initialize()
		return nil
	}
	for _, inst := range b.instances {
		b.insert(inst, p)
	}
	return nil
}

// initialize derives a lower bound from the buffered prefix and spawns the m
// guesses on a geometric grid covering one octave above it.
func (b *BaseOutliers) initialize() {
	lower := metric.NewEngine(1).MinPairwiseDistance(b.sp, b.initBuf) / 2
	if lower <= 0 || math.IsInf(lower, 1) {
		lower = math.SmallestNonzeroFloat64
	}
	ratio := math.Pow(2, 1/float64(b.m))
	b.instances = make([]*outlierInstance, b.m)
	for j := 0; j < b.m; j++ {
		b.instances[j] = &outlierInstance{r: lower * math.Pow(ratio, float64(j))}
	}
	buf := b.initBuf
	b.initBuf = nil
	for _, p := range buf {
		for _, inst := range b.instances {
			b.insert(inst, p)
		}
	}
}

// insert adds a point to a guess instance, restarting the instance at a
// doubled radius when it overflows.
func (b *BaseOutliers) insert(inst *outlierInstance, p metric.Point) {
	if b.distToSet(p, inst.centers) <= 4*inst.r {
		return // covered by an existing center
	}
	inst.free = append(inst.free, p)
	b.promote(inst)
	// Overflow: the guess radius is too small. Double it and replay the
	// instance's retained state (which already includes the new point) until
	// the budgets are respected again.
	for len(inst.centers) > b.k || len(inst.free) > b.freeCap() {
		b.restart(inst)
	}
}

// promote opens new centers at free points that have gathered z+1 supporting
// free points within distance 2r, removing from the free pool everything
// within 4r of a newly opened center.
func (b *BaseOutliers) promote(inst *outlierInstance) {
	for {
		opened := false
		for _, cand := range inst.free {
			if len(inst.centers) >= b.k+1 {
				break
			}
			support := 0
			for _, q := range inst.free {
				if b.sp.Distance(cand, q) <= 2*inst.r {
					support++
				}
			}
			if support >= b.z+1 {
				inst.centers = append(inst.centers, cand)
				kept := inst.free[:0]
				for _, q := range inst.free {
					if b.sp.Distance(cand, q) > 4*inst.r {
						kept = append(kept, q)
					}
				}
				inst.free = kept
				opened = true
				break
			}
		}
		if !opened {
			return
		}
	}
}

// restart doubles the radius of the instance and replays its centers and free
// points into the fresh state, preserving the one-pass coverage chain.
func (b *BaseOutliers) restart(inst *outlierInstance) {
	oldCenters := inst.centers
	oldFree := inst.free
	inst.centers = nil
	inst.free = nil
	inst.r *= 2
	for _, c := range oldCenters {
		// Previous centers certified at least z+1 points each, so they stay
		// centers unless another retained center already covers them.
		if b.distToSet(c, inst.centers) > 4*inst.r && len(inst.centers) < b.k+1 {
			inst.centers = append(inst.centers, c)
		}
	}
	for _, q := range oldFree {
		if b.distToSet(q, inst.centers) > 4*inst.r {
			inst.free = append(inst.free, q)
		}
	}
	b.promote(inst)
}

// WorkingMemory returns the number of points currently retained.
func (b *BaseOutliers) WorkingMemory() int {
	if b.instances == nil {
		return len(b.initBuf)
	}
	total := 0
	for _, inst := range b.instances {
		total += len(inst.centers) + len(inst.free)
	}
	return total
}

// Result returns the centers of the guess with the smallest radius whose
// center count does not exceed k. If the stream ended before initialisation,
// the first k buffered points are returned.
func (b *BaseOutliers) Result() (metric.Dataset, error) {
	if b.processed == 0 {
		return nil, errors.New("streaming: no points processed")
	}
	if b.instances == nil {
		out := b.initBuf.Clone()
		if len(out) > b.k {
			out = out[:b.k]
		}
		return out, nil
	}
	var best *outlierInstance
	for _, inst := range b.instances {
		if len(inst.centers) > b.k {
			continue
		}
		if best == nil || inst.r < best.r {
			best = inst
		}
	}
	if best == nil {
		best = b.instances[0]
	}
	centers := best.centers.Clone()
	// If a guess ended with fewer than k centers and some free points are
	// left, the heaviest-supported free points fill the remaining slots (they
	// may be genuine small clusters rather than outliers).
	for _, q := range best.free {
		if len(centers) >= b.k {
			break
		}
		if b.distToSet(q, centers) > 2*best.r {
			centers = append(centers, q)
		}
	}
	return centers, nil
}
