// Package coreset implements the composable coreset constructions at the
// heart of the paper. A coreset of a point set is a small subset selected with
// the (incremental) GMM algorithm together with a proxy function mapping every
// original point to a nearby coreset point; the weight of a coreset point is
// the number of original points it is proxy for.
//
// Composability is what makes the MapReduce algorithms work: coresets built
// independently on the parts of any partition of the input can be united, and
// the union still embodies a near-optimal solution of the whole input
// (Lemmas 2-6 of the paper).
package coreset

import (
	"errors"
	"fmt"
	"math"

	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
)

// ErrInvalidSpec is returned when a Spec is inconsistent.
var ErrInvalidSpec = errors.New("coreset: invalid spec")

// Spec describes how a coreset is to be built from one partition of the input.
//
// Exactly one of Eps and Size must be positive:
//
//   - Eps > 0 selects the paper's precision-driven stopping rule: run GMM
//     incrementally and stop at the first iteration tau >= RefCenters such
//     that the residual radius is at most (Eps/2) times the radius attained
//     after RefCenters centers.
//   - Size > 0 selects the fixed-size rule used by the paper's experiments:
//     run GMM for exactly Size iterations (tau = mu*k or mu*(k+z)).
type Spec struct {
	// Eps is the precision parameter of the eps-driven stopping rule.
	Eps float64
	// Size is the exact coreset size of the fixed-size rule.
	Size int
	// RefCenters is the reference number of centers of the stopping rule: k
	// for the problem without outliers, k+z (or k+z' in the randomized
	// variant) for the problem with outliers. It must be positive when Eps is
	// used and is optional (but recorded) when Size is used.
	RefCenters int
	// MaxSize caps the coreset size when the eps-driven rule is used
	// (0 = no cap). It guards against pathological inputs where the radius
	// plateaus.
	MaxSize int
	// SeedIndex is the index of the first GMM center within the partition.
	SeedIndex int
	// Workers is the parallelism degree of the distance engine used by the
	// underlying GMM run: <= 0 selects one worker per CPU, 1 forces the
	// sequential path. The coreset is bit-identical for any value.
	Workers int
	// Space, when non-nil, overrides the Distance passed to Build as the
	// metric space of the underlying GMM run (batched kernels +
	// comparison-domain surrogate). When nil, the Distance is upgraded to
	// its native space automatically.
	Space metric.Space
}

func (s Spec) validate() error {
	if s.Eps < 0 {
		return fmt.Errorf("%w: negative eps %v", ErrInvalidSpec, s.Eps)
	}
	if s.Size < 0 {
		return fmt.Errorf("%w: negative size %d", ErrInvalidSpec, s.Size)
	}
	if (s.Eps > 0) == (s.Size > 0) {
		return fmt.Errorf("%w: exactly one of Eps and Size must be positive (eps=%v size=%d)", ErrInvalidSpec, s.Eps, s.Size)
	}
	if s.Eps > 0 && s.RefCenters <= 0 {
		return fmt.Errorf("%w: eps-driven rule requires RefCenters > 0", ErrInvalidSpec)
	}
	if s.SeedIndex < 0 {
		return fmt.Errorf("%w: negative seed index %d", ErrInvalidSpec, s.SeedIndex)
	}
	return nil
}

// Coreset is the result of building a coreset on one partition of the input.
type Coreset struct {
	// Points are the selected coreset points (a subset of the partition).
	Points metric.Dataset
	// Weights[i] is the number of partition points whose proxy is Points[i].
	// The sum of weights equals the partition size.
	Weights []int64
	// Assignment maps every partition point to the index of its proxy within
	// Points.
	Assignment []int
	// ProxyRadius is the maximum distance between a partition point and its
	// proxy, i.e. r_{T_i}(S_i) in the paper's notation. Lemmas 2 and 4 bound
	// it by eps * r*(S).
	ProxyRadius float64
	// RadiusAtRef is the radius attained after RefCenters GMM iterations; the
	// stopping rule compares ProxyRadius against (Eps/2) * RadiusAtRef.
	RadiusAtRef float64
	// SourceSize is the number of points of the partition the coreset was
	// built from.
	SourceSize int
	// Evaluations is the number of distance evaluations the GMM run spent
	// (gmm.Result.Evaluations): at most len(Points) * SourceSize plus the
	// pruned phase's center-to-center ones, far fewer on clustered input.
	Evaluations int64
}

// weighted returns the coreset as a weighted point set, the form consumed by
// the weighted OutliersCluster algorithm.
func (c *Coreset) weighted() metric.WeightedSet {
	out := make(metric.WeightedSet, len(c.Points))
	for i, p := range c.Points {
		out[i] = metric.WeightedPoint{P: p, W: c.Weights[i]}
	}
	return out
}

// Size returns the number of coreset points.
func (c *Coreset) Size() int { return len(c.Points) }

// Build constructs a coreset of the given partition according to the spec.
// dist is read only when spec.Space is nil, and then resolved to its space
// (nil: Euclidean).
func Build(dist metric.Distance, partition metric.Dataset, spec Spec) (*Coreset, error) {
	if len(partition) == 0 {
		return nil, errors.New("coreset: empty partition")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	seed := spec.SeedIndex
	if seed >= len(partition) {
		seed = 0
	}

	sp := spec.Space
	if sp == nil {
		sp = metric.SpaceFor(dist)
	}
	runner := gmm.Runner{Space: sp, Workers: spec.Workers}
	var res *gmm.Result
	var err error
	if spec.Eps > 0 {
		res, err = runner.RunIncremental(partition, spec.RefCenters, spec.Eps/2, spec.MaxSize, seed)
	} else {
		res, err = runner.RunToSize(partition, spec.Size, spec.RefCenters, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("coreset: gmm failed: %w", err)
	}

	weights := make([]int64, len(res.Centers))
	for _, proxy := range res.Assignment {
		weights[proxy]++
	}
	return &Coreset{
		Points:      res.Centers,
		Weights:     weights,
		Assignment:  res.Assignment,
		ProxyRadius: res.Radius,
		RadiusAtRef: res.RadiusAtK,
		SourceSize:  len(partition),
		Evaluations: res.Evaluations,
	}, nil
}

// Union merges coresets built on the parts of a partition into a single
// weighted set (the set T of the paper's second round). The aggregate weight
// of the union equals the total number of input points.
func Union(coresets ...*Coreset) metric.WeightedSet {
	var total int
	for _, c := range coresets {
		if c != nil {
			total += len(c.Points)
		}
	}
	out := make(metric.WeightedSet, 0, total)
	for _, c := range coresets {
		if c == nil {
			continue
		}
		out = append(out, c.weighted()...)
	}
	return out
}

// UnionPoints merges coresets into a plain (unweighted) dataset; this is the
// form used by the second round of the MapReduce algorithm for k-center
// without outliers, where weights play no role.
func UnionPoints(coresets ...*Coreset) metric.Dataset {
	var total int
	for _, c := range coresets {
		if c != nil {
			total += len(c.Points)
		}
	}
	out := make(metric.Dataset, 0, total)
	for _, c := range coresets {
		if c == nil {
			continue
		}
		out = append(out, c.Points...)
	}
	return out
}

// MaxProxyRadius returns the largest proxy radius across the coresets; by
// Lemma 2 (resp. Lemma 4) it is at most eps * r*_k(S) (resp. eps *
// r*_{k,z}(S)).
func MaxProxyRadius(coresets ...*Coreset) float64 {
	var m float64
	for _, c := range coresets {
		if c != nil && c.ProxyRadius > m {
			m = c.ProxyRadius
		}
	}
	return m
}

// TheoreticalSizeBound returns the upper bound of Lemma 3 / Lemma 6 on the
// size of a single partition's coreset: refCenters * (4/eps)^D, where
// refCenters is k for the problem without outliers and k+z with outliers.
// It is exposed for documentation, tests, and sizing heuristics; the
// algorithms themselves never need it.
func TheoreticalSizeBound(refCenters int, eps, doublingDim float64) float64 {
	if eps <= 0 {
		eps = 1
	}
	return float64(refCenters) * math.Pow(4/eps, doublingDim)
}
