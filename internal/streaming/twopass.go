package streaming

import (
	"errors"
	"fmt"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/outliers"
)

// TwoPassOutliers is the 2-pass streaming algorithm for the k-center problem
// with z outliers that is oblivious to the doubling dimension D (end of
// Section 4 of the paper). The first pass runs the doubling algorithm for the
// (k+z)-center problem to obtain a radius estimate rHat <= 8*r*_{k,z}; the
// second pass greedily collects a maximal weighted set of points with mutual
// distances greater than (eps/48)*rHat, which is then fed to the weighted
// OutliersCluster radius search.
type TwoPassOutliers struct {
	K   int
	Z   int
	Eps float64
	// Space is the metric space; nil defaults to Euclidean.
	Space metric.Space
	// SearchStrategy selects the final radius search (zero value = the
	// paper's binary + geometric search).
	SearchStrategy outliers.SearchStrategy
	// MaxCoresetSize optionally caps the second-pass coreset size as a
	// safety valve on adversarial streams (0 = unbounded, the theoretical
	// bound (k+z)(96/eps)^D applies).
	MaxCoresetSize int
}

// TwoPassResult is the output of TwoPassOutliers.Run.
type TwoPassResult struct {
	// Centers are the (at most K) final centers.
	Centers metric.Dataset
	// RadiusEstimate is the first-pass estimate rHat.
	RadiusEstimate float64
	// CoresetSize is the size of the second-pass weighted coreset.
	CoresetSize int
	// UncoveredWeight is the coreset weight left uncovered by the final
	// clustering (at most Z).
	UncoveredWeight int64
	// WorkingMemoryPeak is the largest number of points retained at any time
	// across the two passes.
	WorkingMemoryPeak int
}

// Run executes the two passes. makeSource must return a fresh Source over the
// same stream each time it is called (it is called exactly twice).
func (t *TwoPassOutliers) Run(makeSource func() Source) (*TwoPassResult, error) {
	if makeSource == nil {
		return nil, errors.New("streaming: nil source factory")
	}
	if t.K < 1 {
		return nil, fmt.Errorf("streaming: k must be positive, got %d", t.K)
	}
	if t.Z < 0 {
		return nil, fmt.Errorf("streaming: z must be non-negative, got %d", t.Z)
	}
	if t.Eps <= 0 {
		return nil, fmt.Errorf("streaming: eps must be positive, got %v", t.Eps)
	}
	sp := t.Space
	if sp == nil {
		sp = metric.EuclideanSpace
	}

	// Pass 1: doubling algorithm for the (k+z)-center problem.
	pass1, err := NewDoublingIn(sp, t.K+t.Z)
	if err != nil {
		return nil, err
	}
	if _, err := Drain(makeSource(), pass1); err != nil {
		return nil, fmt.Errorf("streaming: first pass failed: %w", err)
	}
	if pass1.Processed() == 0 {
		return nil, errors.New("streaming: empty stream")
	}
	rHat := 8 * pass1.Phi()
	if rHat == 0 {
		// All points seen so far coincide (or fewer than tau+1 points were
		// processed); any single point is an optimal center.
		cs := pass1.Coreset()
		return &TwoPassResult{
			Centers:           cs.Points()[:minInt(t.K, len(cs))],
			RadiusEstimate:    0,
			CoresetSize:       len(cs),
			UncoveredWeight:   0,
			WorkingMemoryPeak: pass1.WorkingMemory(),
		}, nil
	}

	// Pass 2: maximal separated weighted coreset at separation (eps/48)*rHat.
	// The point view of the coreset is maintained alongside it so the
	// per-point nearest scan is one batched kernel with no allocations.
	sep := (t.Eps / 48) * rHat
	var coreset metric.WeightedSet
	var pts metric.Dataset
	peak := pass1.WorkingMemory()
	src := makeSource()
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		surr, closest := sp.ArgNearest(p, pts)
		d := sp.FromSurrogate(surr)
		if d <= sep && closest >= 0 {
			coreset[closest].W++
			continue
		}
		if t.MaxCoresetSize > 0 && len(coreset) >= t.MaxCoresetSize {
			// Budget exhausted: attach to the closest existing point even
			// though it is farther than the separation threshold.
			if closest >= 0 {
				coreset[closest].W++
				continue
			}
		}
		coreset = append(coreset, metric.WeightedPoint{P: p, W: 1})
		pts = append(pts, p)
		if len(coreset) > peak {
			peak = len(coreset)
		}
	}
	if len(coreset) == 0 {
		return nil, errors.New("streaming: empty stream on second pass")
	}

	solved, err := outliers.SolveIn(sp, coreset, t.K, int64(t.Z), t.Eps/6, t.SearchStrategy, 1)
	if err != nil {
		return nil, fmt.Errorf("streaming: final clustering failed: %w", err)
	}
	return &TwoPassResult{
		Centers:           solved.Centers,
		RadiusEstimate:    rHat,
		CoresetSize:       len(coreset),
		UncoveredWeight:   solved.UncoveredWeight,
		WorkingMemoryPeak: peak,
	}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
