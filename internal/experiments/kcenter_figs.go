package experiments

import (
	"fmt"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/core"
	"coresetclustering/internal/dataset"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/sketch"
	"coresetclustering/internal/streaming"
)

// Figure2Config parameterises the MapReduce k-center sweep of Figure 2:
// approximation ratio as a function of the coreset multiplier mu and the
// parallelism ell.
type Figure2Config struct {
	// Datasets selects the dataset families (default: all three).
	Datasets []dataset.Name
	// N is the number of points per dataset.
	N int
	// K overrides the per-dataset number of centers (0 = the paper's
	// defaults: Higgs 50, Power 100, Wiki 60).
	K int
	// Ells are the parallelism values (paper: 2, 4, 8, 16).
	Ells []int
	// Mus are the coreset multipliers (paper: 1, 2, 4, 8); mu = 1 is the
	// MalkomesEtAl baseline.
	Mus []int
	// Runs is the number of repetitions per configuration.
	Runs int
	// Seed drives dataset generation and shuffling.
	Seed int64
	// Workers is the distance-engine parallelism of every clustering run
	// (<= 0 selects one worker per CPU, 1 forces the sequential path).
	// Radii are bit-identical for any value.
	Workers int
}

// DefaultFigure2Config returns the laptop-scale defaults.
func DefaultFigure2Config() Figure2Config {
	return Figure2Config{
		N:    8000,
		Ells: []int{2, 4, 8, 16},
		Mus:  []int{1, 2, 4, 8},
		Runs: defaultRuns,
		Seed: 1,
	}
}

// Figure2Row is one bar of Figure 2.
type Figure2Row struct {
	Dataset dataset.Name
	K       int
	Ell     int
	Mu      int
	Radius  Summary
	Ratio   Summary
}

// Figure2Result holds the full sweep.
type Figure2Result struct {
	Rows []Figure2Row
}

// Table renders the result in the paper's layout.
func (r *Figure2Result) Table() *Table {
	t := NewTable("Figure 2: MapReduce k-center, ratio vs coreset size (mu) and parallelism (ell)",
		"dataset", "k", "ell", "mu", "ratio", "radius")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.K, row.Ell, row.Mu, row.Ratio, row.Radius)
	}
	return t
}

// RunFigure2 executes the Figure 2 sweep.
func RunFigure2(cfg Figure2Config) (*Figure2Result, error) {
	if cfg.N <= 0 || len(cfg.Ells) == 0 || len(cfg.Mus) == 0 {
		return nil, fmt.Errorf("experiments: invalid Figure 2 config %+v", cfg)
	}
	cfg.Runs = clampRuns(cfg.Runs)
	kOf := func(name dataset.Name) int {
		if cfg.K > 0 {
			return cfg.K
		}
		return name.DefaultK()
	}
	workloads, err := buildWorkloads(cfg.Datasets, cfg.N, kOf, 0, cfg.Seed)
	if err != nil {
		return nil, err
	}

	type cell struct {
		w       Workload
		ell, mu int
		radii   []float64
	}
	var cells []*cell
	tracker := newRatioTracker()
	for wi := range workloads {
		w := workloads[wi]
		for _, ell := range cfg.Ells {
			for _, mu := range cfg.Mus {
				c := &cell{w: w, ell: ell, mu: mu}
				for run := 0; run < cfg.Runs; run++ {
					shuffled := dataset.Shuffle(w.Points, cfg.Seed+int64(run)*17+int64(ell*31+mu))
					res, err := core.KCenter(shuffled, core.KCenterConfig{
						K:           w.K,
						Ell:         ell,
						CoresetSize: mu * w.K,
						Workers:     cfg.Workers,
					})
					if err != nil {
						return nil, fmt.Errorf("experiments: figure 2 %s ell=%d mu=%d: %w", w.Name, ell, mu, err)
					}
					c.radii = append(c.radii, res.Radius)
					tracker.observe(string(w.Name), res.Radius)
				}
				cells = append(cells, c)
			}
		}
	}

	out := &Figure2Result{}
	for _, c := range cells {
		radius, err := Summarize(c.radii)
		if err != nil {
			return nil, err
		}
		ratios := make([]float64, len(c.radii))
		for i, r := range c.radii {
			ratios[i] = tracker.ratio(string(c.w.Name), r)
		}
		ratio, err := Summarize(ratios)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Figure2Row{
			Dataset: c.w.Name, K: c.w.K, Ell: c.ell, Mu: c.mu,
			Radius: radius, Ratio: ratio,
		})
	}
	return out, nil
}

// Figure3Config parameterises the streaming k-center comparison of Figure 3:
// CoresetStream (space mu*k) versus BaseStream (space m*k), reporting
// approximation ratio and throughput as functions of space.
type Figure3Config struct {
	Datasets []dataset.Name
	// N is the number of points per dataset.
	N int
	// K overrides the per-dataset number of centers (0 = paper defaults).
	K int
	// Multipliers are the space multipliers used for BOTH algorithms
	// (mu for CoresetStream, m for BaseStream); paper: 1, 2, 4, 8, 16.
	Multipliers []int
	Runs        int
	Seed        int64
}

// DefaultFigure3Config returns the laptop-scale defaults.
func DefaultFigure3Config() Figure3Config {
	return Figure3Config{
		N:           8000,
		Multipliers: []int{1, 2, 4, 8, 16},
		Runs:        defaultRuns,
		Seed:        2,
	}
}

// Figure3Row is one point of one series of Figure 3.
type Figure3Row struct {
	Dataset    dataset.Name
	Algorithm  string // "CoresetStream" or "BaseStream"
	Multiplier int
	Space      int // points of working memory
	Ratio      Summary
	Throughput Summary // points per second
}

// Figure3Result holds both series for every dataset.
type Figure3Result struct {
	Rows []Figure3Row
}

// Table renders the result.
func (r *Figure3Result) Table() *Table {
	t := NewTable("Figure 3: streaming k-center, ratio and throughput vs space",
		"dataset", "algorithm", "multiplier", "space", "ratio", "pts/s")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Algorithm, row.Multiplier, row.Space, row.Ratio, row.Throughput)
	}
	return t
}

// RunFigure3 executes the Figure 3 sweep.
func RunFigure3(cfg Figure3Config) (*Figure3Result, error) {
	if cfg.N <= 0 || len(cfg.Multipliers) == 0 {
		return nil, fmt.Errorf("experiments: invalid Figure 3 config %+v", cfg)
	}
	cfg.Runs = clampRuns(cfg.Runs)
	kOf := func(name dataset.Name) int {
		if cfg.K > 0 {
			return cfg.K
		}
		return name.DefaultK()
	}
	workloads, err := buildWorkloads(cfg.Datasets, cfg.N, kOf, 0, cfg.Seed)
	if err != nil {
		return nil, err
	}

	type cell struct {
		w          Workload
		algorithm  string
		multiplier int
		space      int
		radii      []float64
		throughput []float64
	}
	var cells []*cell
	tracker := newRatioTracker()

	runStream := func(w Workload, seed int64, build func() (streaming.Processor, func() (metric.Dataset, error), int)) (radius, tput float64, space int, err error) {
		shuffled := dataset.Shuffle(w.Points, seed)
		proc, result, space := build()
		elapsed, err := feedStream(proc, shuffled)
		if err != nil {
			return 0, 0, 0, err
		}
		centers, err := result()
		if err != nil {
			return 0, 0, 0, err
		}
		radius = metric.NewEngine(1).Radius(metric.EuclideanSpace, shuffled, centers)
		tput = Throughput(int64(len(shuffled)), elapsed)
		return radius, tput, space, nil
	}

	for wi := range workloads {
		w := workloads[wi]
		for _, mult := range cfg.Multipliers {
			coresetCell := &cell{w: w, algorithm: "CoresetStream", multiplier: mult, space: mult * w.K}
			baseCell := &cell{w: w, algorithm: "BaseStream", multiplier: mult, space: mult * w.K}
			for run := 0; run < cfg.Runs; run++ {
				seed := cfg.Seed + int64(run)*101 + int64(mult)

				radius, tput, _, err := runStream(w, seed, func() (streaming.Processor, func() (metric.Dataset, error), int) {
					cs, err := clusterer.New(clusterer.Params{Kind: sketch.KindKCenter, K: w.K, Tau: mult * w.K})
					if err != nil {
						panic(err) // configuration is validated above; mult >= 1 implies tau >= k
					}
					return cs, cs.Centers, mult * w.K
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 3 CoresetStream %s mult=%d: %w", w.Name, mult, err)
				}
				coresetCell.radii = append(coresetCell.radii, radius)
				coresetCell.throughput = append(coresetCell.throughput, tput)
				tracker.observe(string(w.Name), radius)

				radius, tput, _, err = runStream(w, seed+1, func() (streaming.Processor, func() (metric.Dataset, error), int) {
					bs, err := streaming.NewBaseStream(nil, w.K, mult)
					if err != nil {
						panic(err)
					}
					return bs, bs.Result, mult * w.K
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 3 BaseStream %s m=%d: %w", w.Name, mult, err)
				}
				baseCell.radii = append(baseCell.radii, radius)
				baseCell.throughput = append(baseCell.throughput, tput)
				tracker.observe(string(w.Name), radius)
			}
			cells = append(cells, coresetCell, baseCell)
		}
	}

	out := &Figure3Result{}
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
		out.Rows = append(out.Rows, Figure3Row{
			Dataset: c.w.Name, Algorithm: c.algorithm, Multiplier: c.multiplier,
			Space: c.space, Ratio: ratio, Throughput: tput,
		})
	}
	return out, nil
}
