// Package dataset provides the data substrate of the experiments: synthetic
// generators that stand in for the paper's Higgs, Power and Wiki datasets,
// the outlier-injection procedure of Section 5.2 (with the approximate minimum
// enclosing ball it places outliers by), the SMOTE-like inflation of
// Section 5.3, and CSV persistence for the command-line tools.
//
// The real datasets are not redistributable within this repository, so the
// generators reproduce the properties that matter to the algorithms: the
// dimensionality, a clustered structure with unbalanced cluster masses, and
// (for the Wiki surrogate) high dimensionality with weak separation. DESIGN.md
// documents the substitution rationale.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"coresetclustering/internal/metric"
)

// Name identifies one of the built-in synthetic dataset families.
type Name string

// The three dataset families of the paper's experiments.
const (
	// Higgs mimics the 7 derived attributes of the UCI HIGGS dataset:
	// moderately separated clusters with heavy-tailed per-feature scales.
	Higgs Name = "higgs"
	// Power mimics the 7 numeric attributes of the UCI household power
	// consumption dataset: strongly correlated coordinates (regime clusters
	// along a few directions).
	Power Name = "power"
	// Wiki mimics 50-dimensional word2vec embeddings of Wikipedia: many
	// weakly separated clusters on (roughly) a sphere, i.e. a hard,
	// high-doubling-dimension input.
	Wiki Name = "wiki"
)

// DefaultK returns the number of centers the paper uses for this family in
// the k-center experiments (Figure 2).
func (n Name) DefaultK() int {
	switch n {
	case Higgs:
		return 50
	case Power:
		return 100
	case Wiki:
		return 60
	default:
		return 50
	}
}

// Names lists the built-in families in the order the paper presents them.
func Names() []Name { return []Name{Higgs, Power, Wiki} }

// Generate produces n points of the named synthetic family using the given
// seed. Generation is deterministic in (name, n, seed).
func Generate(name Name, n int, seed int64) (metric.Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: n must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case Higgs:
		return generateHiggsLike(rng, n), nil
	case Power:
		return generatePowerLike(rng, n), nil
	case Wiki:
		return generateWikiLike(rng, n), nil
	default:
		return nil, fmt.Errorf("dataset: unknown dataset family %q", name)
	}
}

// generateHiggsLike produces a 7-dimensional Gaussian mixture with
// heavy-tailed cluster masses (a few large clusters, a long tail of small
// ones) and per-dimension scales spanning an order of magnitude, similar to
// derived physics features.
func generateHiggsLike(rng *rand.Rand, n int) metric.Dataset {
	const dim = 7
	const clusters = 60
	centers := make(metric.Dataset, clusters)
	scales := make([]float64, dim)
	for d := 0; d < dim; d++ {
		scales[d] = math.Pow(10, rng.Float64()) // in [1, 10)
	}
	for c := range centers {
		p := make(metric.Point, dim)
		for d := 0; d < dim; d++ {
			p[d] = rng.NormFloat64() * 5 * scales[d]
		}
		centers[c] = p
	}
	// Heavy-tailed cluster masses: probability proportional to 1/(rank+1).
	weights := make([]float64, clusters)
	total := 0.0
	for c := range weights {
		weights[c] = 1 / float64(c+1)
		total += weights[c]
	}
	ds := make(metric.Dataset, n)
	for i := range ds {
		c := sampleWeighted(rng, weights, total)
		p := make(metric.Point, dim)
		for d := 0; d < dim; d++ {
			p[d] = centers[c][d] + float64(rng.NormFloat64()*scales[d])
		}
		ds[i] = p
	}
	return ds
}

// generatePowerLike produces a 7-dimensional mixture whose clusters lie along
// a few shared directions with strong coordinate correlation, mimicking
// operating regimes of household power measurements.
func generatePowerLike(rng *rand.Rand, n int) metric.Dataset {
	const dim = 7
	const regimes = 24
	// A handful of shared directions inducing correlations.
	dirs := make([]metric.Point, 3)
	for i := range dirs {
		v := make(metric.Point, dim)
		for d := 0; d < dim; d++ {
			v[d] = rng.NormFloat64()
		}
		dirs[i] = v
	}
	centers := make(metric.Dataset, regimes)
	for c := range centers {
		p := make(metric.Point, dim)
		for i, dir := range dirs {
			coef := rng.NormFloat64() * float64(10*(i+1))
			for d := 0; d < dim; d++ {
				p[d] += float64(coef * dir[d])
			}
		}
		centers[c] = p
	}
	ds := make(metric.Dataset, n)
	for i := range ds {
		c := rng.Intn(regimes)
		p := make(metric.Point, dim)
		// Noise is also correlated along the shared directions plus a small
		// isotropic term.
		coefs := []float64{rng.NormFloat64(), rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.25}
		for d := 0; d < dim; d++ {
			p[d] = centers[c][d] + float64(rng.NormFloat64()*0.2)
			for j, dir := range dirs {
				p[d] += float64(coefs[j] * dir[d])
			}
		}
		ds[i] = p
	}
	return ds
}

// generateWikiLike produces 50-dimensional points resembling word2vec
// embeddings: many weakly separated clusters, with every vector normalised to
// (approximately) unit norm, so that no small coreset captures the geometry
// well — the paper's hard, high-dimensional stress case.
func generateWikiLike(rng *rand.Rand, n int) metric.Dataset {
	const dim = 50
	const topics = 200
	centers := make(metric.Dataset, topics)
	for c := range centers {
		p := make(metric.Point, dim)
		for d := 0; d < dim; d++ {
			p[d] = rng.NormFloat64()
		}
		normalize(p)
		centers[c] = p
	}
	ds := make(metric.Dataset, n)
	for i := range ds {
		c := rng.Intn(topics)
		p := make(metric.Point, dim)
		for d := 0; d < dim; d++ {
			// Weak separation: the within-topic spread is comparable to the
			// between-topic distance.
			p[d] = centers[c][d] + float64(rng.NormFloat64()*0.6)
		}
		normalize(p)
		ds[i] = p
	}
	return ds
}

func normalize(p metric.Point) {
	var s float64
	for _, c := range p {
		s += float64(c * c)
	}
	if s == 0 {
		return
	}
	inv := 1 / math.Sqrt(s)
	for i := range p {
		p[i] *= inv
	}
}

// sampleWeighted draws an index proportionally to the given weights.
func sampleWeighted(rng *rand.Rand, weights []float64, total float64) int {
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle returns a copy of the dataset in uniformly random order (the
// streaming experiments shuffle the input before streaming it).
func Shuffle(ds metric.Dataset, seed int64) metric.Dataset {
	out := make(metric.Dataset, len(ds))
	copy(out, ds)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
