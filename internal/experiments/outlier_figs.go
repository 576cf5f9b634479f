package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/core"
	"coresetclustering/internal/dataset"
	"coresetclustering/internal/mapreduce"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/sketch"
	"coresetclustering/internal/streaming"
)

// Figure4Config parameterises the MapReduce k-center-with-outliers comparison
// of Figure 4: deterministic versus randomized coresets under adversarial
// outlier placement, reporting ratio and running time per coreset multiplier.
type Figure4Config struct {
	Datasets []dataset.Name
	// N is the number of non-outlier points per dataset.
	N int
	// K and Z are the clustering parameters (paper: k=20, z=200; the
	// laptop-scale default shrinks z together with n).
	K int
	Z int
	// Ell is the parallelism (paper: 16).
	Ell int
	// Mus are the coreset multipliers (paper: 1, 2, 4, 8); mu = 1
	// deterministic is the MalkomesEtAl baseline.
	Mus []int
	// EpsHat is the OutliersCluster slack parameter.
	EpsHat float64
	Runs   int
	Seed   int64
	// Workers is the distance-engine parallelism of every clustering run
	// (<= 0 selects one worker per CPU, 1 forces the sequential path).
	Workers int
}

// DefaultFigure4Config returns the laptop-scale defaults.
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{
		N:      3000,
		K:      10,
		Z:      30,
		Ell:    8,
		Mus:    []int{1, 2, 4, 8},
		EpsHat: 0.25,
		Runs:   defaultRuns,
		Seed:   3,
	}
}

// Figure4Row is one bar of Figure 4 (one variant at one multiplier).
type Figure4Row struct {
	Dataset     dataset.Name
	Variant     string // "deterministic" or "randomized"
	Mu          int
	CoresetSize int // per-partition coreset size tau
	Ratio       Summary
	Time        Summary // seconds
}

// Figure4Result holds the full sweep.
type Figure4Result struct {
	Rows []Figure4Row
}

// Table renders the result.
func (r *Figure4Result) Table() *Table {
	t := NewTable("Figure 4: MapReduce k-center with outliers, deterministic vs randomized (adversarial partitioning)",
		"dataset", "variant", "mu", "tau", "ratio", "time(s)")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Variant, row.Mu, row.CoresetSize, row.Ratio, row.Time)
	}
	return t
}

// RunFigure4 executes the Figure 4 sweep. The input is partitioned
// adversarially: all injected outliers land in the same partition, the
// placement the paper uses to stress the deterministic algorithm.
func RunFigure4(cfg Figure4Config) (*Figure4Result, error) {
	if cfg.N <= 0 || cfg.K <= 0 || cfg.Z < 0 || cfg.Ell <= 0 || len(cfg.Mus) == 0 {
		return nil, fmt.Errorf("experiments: invalid Figure 4 config %+v", cfg)
	}
	cfg.Runs = clampRuns(cfg.Runs)
	workloads, err := buildWorkloads(cfg.Datasets, cfg.N, func(dataset.Name) int { return cfg.K }, cfg.Z, cfg.Seed)
	if err != nil {
		return nil, err
	}

	type cell struct {
		w       Workload
		variant string
		mu      int
		tau     int
		radii   []float64
		seconds []float64
	}
	var cells []*cell
	tracker := newRatioTracker()

	for wi := range workloads {
		w := workloads[wi]
		for _, mu := range cfg.Mus {
			detTau := mu * (cfg.K + cfg.Z)
			randTau := mu * (cfg.K + 6*cfg.Z/cfg.Ell)
			det := &cell{w: w, variant: "deterministic", mu: mu, tau: detTau}
			rnd := &cell{w: w, variant: "randomized", mu: mu, tau: randTau}
			for run := 0; run < cfg.Runs; run++ {
				seed := cfg.Seed + int64(run)*97 + int64(mu)

				// Deterministic variant with adversarial placement of the
				// outliers (all in one partition).
				var detRes *core.OutliersResult
				elapsed, err := timeIt(func() error {
					var err error
					detRes, err = core.KCenterOutliers(w.Points, core.OutliersConfig{
						K: cfg.K, Z: cfg.Z, Ell: cfg.Ell,
						CoresetSize: detTau,
						EpsHat:      cfg.EpsHat,
						Partitioner: mapreduce.AdversarialPartitioner{Targeted: w.OutlierIndices},
						Workers:     cfg.Workers,
					})
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 4 deterministic %s mu=%d: %w", w.Name, mu, err)
				}
				det.radii = append(det.radii, detRes.Radius)
				det.seconds = append(det.seconds, elapsed.Seconds())
				tracker.observe(string(w.Name), detRes.Radius)

				// Randomized variant (random partitioning defeats the
				// adversarial placement).
				var rndRes *core.OutliersResult
				elapsed, err = timeIt(func() error {
					var err error
					rndRes, err = core.KCenterOutliers(w.Points, core.OutliersConfig{
						K: cfg.K, Z: cfg.Z, Ell: cfg.Ell,
						CoresetSize: randTau,
						EpsHat:      cfg.EpsHat,
						Randomized:  true,
						Rand:        rand.New(rand.NewSource(seed)),
						Workers:     cfg.Workers,
					})
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 4 randomized %s mu=%d: %w", w.Name, mu, err)
				}
				rnd.radii = append(rnd.radii, rndRes.Radius)
				rnd.seconds = append(rnd.seconds, elapsed.Seconds())
				tracker.observe(string(w.Name), rndRes.Radius)
			}
			cells = append(cells, det, rnd)
		}
	}

	out := &Figure4Result{}
	for _, c := range cells {
		ratios := make([]float64, len(c.radii))
		for i, r := range c.radii {
			ratios[i] = tracker.ratio(string(c.w.Name), r)
		}
		ratio, err := Summarize(ratios)
		if err != nil {
			return nil, err
		}
		secs, err := Summarize(c.seconds)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Figure4Row{
			Dataset: c.w.Name, Variant: c.variant, Mu: c.mu, CoresetSize: c.tau,
			Ratio: ratio, Time: secs,
		})
	}
	return out, nil
}

// Figure5Config parameterises the streaming k-center-with-outliers comparison
// of Figure 5: CoresetOutliers (space mu*(k+z)) versus BaseOutliers (space
// roughly m*k*z), reporting ratio and throughput as functions of space.
type Figure5Config struct {
	Datasets []dataset.Name
	// N is the number of non-outlier points per dataset.
	N int
	K int
	Z int
	// Multipliers are the space multipliers for both algorithms (mu and m);
	// paper: 1, 2, 4, 8, 16.
	Multipliers []int
	// EpsHat is the OutliersCluster slack of the coreset algorithm.
	EpsHat float64
	Runs   int
	Seed   int64
}

// DefaultFigure5Config returns the laptop-scale defaults.
func DefaultFigure5Config() Figure5Config {
	return Figure5Config{
		N:           4000,
		K:           10,
		Z:           30,
		Multipliers: []int{1, 2, 4, 8},
		EpsHat:      0.25,
		Runs:        defaultRuns,
		Seed:        4,
	}
}

// Figure5Row is one point of one series of Figure 5.
type Figure5Row struct {
	Dataset    dataset.Name
	Algorithm  string // "CoresetOutliers" or "BaseOutliers"
	Multiplier int
	Space      int // peak working memory in points
	Ratio      Summary
	Throughput Summary
}

// Figure5Result holds both series for every dataset.
type Figure5Result struct {
	Rows []Figure5Row
}

// Table renders the result.
func (r *Figure5Result) Table() *Table {
	t := NewTable("Figure 5: streaming k-center with outliers, ratio and throughput vs space",
		"dataset", "algorithm", "multiplier", "space", "ratio", "pts/s")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Algorithm, row.Multiplier, row.Space, row.Ratio, row.Throughput)
	}
	return t
}

// RunFigure5 executes the Figure 5 sweep.
func RunFigure5(cfg Figure5Config) (*Figure5Result, error) {
	if cfg.N <= 0 || cfg.K <= 0 || cfg.Z < 0 || len(cfg.Multipliers) == 0 {
		return nil, fmt.Errorf("experiments: invalid Figure 5 config %+v", cfg)
	}
	cfg.Runs = clampRuns(cfg.Runs)
	workloads, err := buildWorkloads(cfg.Datasets, cfg.N, func(dataset.Name) int { return cfg.K }, cfg.Z, cfg.Seed)
	if err != nil {
		return nil, err
	}

	type cell struct {
		w          Workload
		algorithm  string
		multiplier int
		spaces     []float64
		radii      []float64
		throughput []float64
	}
	var cells []*cell
	tracker := newRatioTracker()

	for wi := range workloads {
		w := workloads[wi]
		for _, mult := range cfg.Multipliers {
			coresetCell := &cell{w: w, algorithm: "CoresetOutliers", multiplier: mult}
			baseCell := &cell{w: w, algorithm: "BaseOutliers", multiplier: mult}
			for run := 0; run < cfg.Runs; run++ {
				seed := cfg.Seed + int64(run)*211 + int64(mult)
				shuffled := dataset.Shuffle(w.Points, seed)

				// CoresetOutliers.
				co, err := clusterer.New(clusterer.Params{
					Kind: sketch.KindOutliers, K: cfg.K, Z: cfg.Z, Tau: mult * (cfg.K + cfg.Z), EpsHat: cfg.EpsHat,
				})
				if err != nil {
					return nil, err
				}
				var elapsed time.Duration
				elapsed, err = feedStream(co, shuffled)
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 5 CoresetOutliers %s mu=%d: %w", w.Name, mult, err)
				}
				ccenters, err := co.Centers()
				if err != nil {
					return nil, err
				}
				radius := metric.NewEngine(1).RadiusExcluding(metric.EuclideanSpace, shuffled, ccenters, cfg.Z)
				coresetCell.radii = append(coresetCell.radii, radius)
				coresetCell.throughput = append(coresetCell.throughput, Throughput(int64(len(shuffled)), elapsed))
				coresetCell.spaces = append(coresetCell.spaces, float64(co.WorkingMemory()))
				tracker.observe(string(w.Name), radius)

				// BaseOutliers.
				bo, err := streaming.NewBaseOutliers(nil, cfg.K, cfg.Z, mult)
				if err != nil {
					return nil, err
				}
				elapsed, err = feedStream(bo, shuffled)
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 5 BaseOutliers %s m=%d: %w", w.Name, mult, err)
				}
				centers, err := bo.Result()
				if err != nil {
					return nil, err
				}
				radius = metric.NewEngine(1).RadiusExcluding(metric.EuclideanSpace, shuffled, centers, cfg.Z)
				baseCell.radii = append(baseCell.radii, radius)
				baseCell.throughput = append(baseCell.throughput, Throughput(int64(len(shuffled)), elapsed))
				baseCell.spaces = append(baseCell.spaces, float64(bo.WorkingMemory()))
				tracker.observe(string(w.Name), radius)
			}
			cells = append(cells, coresetCell, baseCell)
		}
	}

	out := &Figure5Result{}
	for _, c := range cells {
		ratios := make([]float64, len(c.radii))
		for i, r := range c.radii {
			ratios[i] = tracker.ratio(string(c.w.Name), r)
		}
		ratio, err := Summarize(ratios)
		if err != nil {
			return nil, err
		}
		tput, err := Summarize(c.throughput)
		if err != nil {
			return nil, err
		}
		space, err := Summarize(c.spaces)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Figure5Row{
			Dataset: c.w.Name, Algorithm: c.algorithm, Multiplier: c.multiplier,
			Space: int(space.Mean), Ratio: ratio, Throughput: tput,
		})
	}
	return out, nil
}
