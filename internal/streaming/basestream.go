package streaming

import (
	"errors"
	"fmt"
	"math"

	"coresetclustering/internal/metric"
)

// BaseStream re-implements the McCutchen–Khuller (2008) style streaming
// algorithm for the k-center problem WITHOUT outliers, the BASESTREAM
// baseline of Figure 3. It runs m parallel guesses of the optimal radius on a
// geometric grid spanning one doubling octave; each guess maintains at most k
// centers and is restarted at twice its radius when a (k+1)-th center would be
// needed (re-inserting its previous centers so the one-pass guarantee chains
// across restarts). Space is Theta(m*k); the approximation factor approaches
// 2+eps as m grows (the grid gets finer).
type BaseStream struct {
	k  int
	m  int
	sp metric.Space

	initBuf   metric.Dataset
	instances []*guessInstance
	processed int64
}

// distToSet is the true distance from p to the closest point of set (+Inf
// for an empty set), computed with the space's batched row kernel.
func (b *BaseStream) distToSet(p metric.Point, set metric.Dataset) float64 {
	s, _ := b.sp.ArgNearest(p, set)
	return b.sp.FromSurrogate(s)
}

// guessInstance is one radius guess of BaseStream.
type guessInstance struct {
	r        float64
	centers  metric.Dataset
	restarts int
}

// NewBaseStream returns a BaseStream on the metric space sp (nil defaults to
// Euclidean) with k centers and m parallel guesses.
func NewBaseStream(sp metric.Space, k, m int) (*BaseStream, error) {
	if k < 1 {
		return nil, fmt.Errorf("streaming: k must be positive, got %d", k)
	}
	if m < 1 {
		return nil, fmt.Errorf("streaming: m must be positive, got %d", m)
	}
	if sp == nil {
		sp = metric.EuclideanSpace
	}
	return &BaseStream{k: k, m: m, sp: sp}, nil
}

// Process implements Processor.
func (b *BaseStream) Process(p metric.Point) error {
	if p == nil {
		return errors.New("streaming: nil point")
	}
	b.processed++
	if b.instances == nil {
		b.initBuf = append(b.initBuf, p)
		if len(b.initBuf) < b.k+2 {
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

// initialize derives a lower bound on the optimal radius from the buffered
// prefix and spawns the m guesses on a geometric grid covering one octave
// above it.
func (b *BaseStream) initialize() {
	lower := metric.NewEngine(1).MinPairwiseDistance(b.sp, b.initBuf) / 2
	if lower <= 0 || math.IsInf(lower, 1) {
		lower = math.SmallestNonzeroFloat64
	}
	ratio := math.Pow(2, 1/float64(b.m))
	b.instances = make([]*guessInstance, b.m)
	for j := 0; j < b.m; j++ {
		b.instances[j] = &guessInstance{r: lower * math.Pow(ratio, float64(j))}
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
// doubled radius whenever it would need more than k centers.
func (b *BaseStream) insert(inst *guessInstance, p metric.Point) {
	for {
		d := b.distToSet(p, inst.centers)
		if d <= 2*inst.r {
			return
		}
		if len(inst.centers) < b.k {
			inst.centers = append(inst.centers, p)
			return
		}
		// The guess is too small: double it and re-insert the old centers,
		// then retry the new point.
		old := inst.centers
		inst.centers = nil
		inst.r *= 2
		inst.restarts++
		for _, c := range old {
			if b.distToSet(c, inst.centers) > 2*inst.r {
				inst.centers = append(inst.centers, c)
			}
		}
	}
}

// WorkingMemory implements Processor.
func (b *BaseStream) WorkingMemory() int {
	if b.instances == nil {
		return len(b.initBuf)
	}
	total := 0
	for _, inst := range b.instances {
		total += len(inst.centers)
	}
	return total
}

// Processed implements Processor.
func (b *BaseStream) Processed() int64 { return b.processed }

// Result returns the centers of the guess with the smallest radius. If the
// stream ended before initialisation (fewer than k+2 points), the buffered
// points themselves are returned (they are a perfect clustering).
func (b *BaseStream) Result() (metric.Dataset, error) {
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
	var best *guessInstance
	for _, inst := range b.instances {
		if best == nil || inst.r < best.r {
			best = inst
		}
	}
	return best.centers.Clone(), nil
}

// Restarts reports the total number of instance restarts, a diagnostic of how
// far the initial lower bound was from the final radius.
func (b *BaseStream) Restarts() int {
	total := 0
	for _, inst := range b.instances {
		total += inst.restarts
	}
	return total
}
