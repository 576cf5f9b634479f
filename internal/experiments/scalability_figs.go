package experiments

import (
	"fmt"
	"math/rand"

	"coresetclustering/internal/core"
	"coresetclustering/internal/dataset"
)

// Figure6Config parameterises the input-size scalability experiment of
// Figure 6: the randomized MapReduce algorithm for k-center with outliers is
// run on SMOTE-like inflated instances of each dataset and the running time
// is reported per inflation factor (the paper uses factors 1, 25, 50, 100 on
// datasets of up to 1.2 billion points; the laptop-scale defaults shrink
// both).
type Figure6Config struct {
	Datasets []dataset.Name
	// BaseN is the size of the factor-1 instance.
	BaseN int
	// Factors are the multiplicative inflation factors.
	Factors []int
	K       int
	Z       int
	Ell     int
	// Mu is the coreset multiplier (paper: 8); tau = Mu*(K + 6*Z/Ell).
	Mu     int
	EpsHat float64
	Runs   int
	Seed   int64
	// Workers is the distance-engine parallelism of every clustering run
	// (<= 0 selects one worker per CPU, 1 forces the sequential path).
	// The default configuration pins 1 so the reported per-size running
	// times reflect the algorithmic work, not engine-level parallelism.
	Workers int
}

// DefaultFigure6Config returns the laptop-scale defaults.
func DefaultFigure6Config() Figure6Config {
	return Figure6Config{
		BaseN:   20000,
		Factors: []int{1, 2, 4, 8},
		K:       10,
		Z:       30,
		Ell:     8,
		Mu:      4,
		EpsHat:  0.25,
		Runs:    defaultRuns,
		Seed:    5,
		Workers: 1,
	}
}

// Figure6Row is one point of Figure 6.
type Figure6Row struct {
	Dataset dataset.Name
	Factor  int
	N       int
	// CoresetTime is the (size-dependent) first-round time; SolveTime is the
	// (size-independent) second-round time; TotalTime is their sum plus
	// partitioning overhead. All in seconds.
	CoresetTime Summary
	SolveTime   Summary
	TotalTime   Summary
}

// Figure6Result holds the sweep.
type Figure6Result struct {
	Rows []Figure6Row
}

// Table renders the result.
func (r *Figure6Result) Table() *Table {
	t := NewTable("Figure 6: scalability with input size (randomized MapReduce, k-center with outliers)",
		"dataset", "factor", "n", "coreset(s)", "solve(s)", "total(s)")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Factor, row.N, row.CoresetTime, row.SolveTime, row.TotalTime)
	}
	return t
}

// RunFigure6 executes the Figure 6 sweep.
func RunFigure6(cfg Figure6Config) (*Figure6Result, error) {
	if cfg.BaseN <= 0 || len(cfg.Factors) == 0 || cfg.K <= 0 || cfg.Z < 0 || cfg.Ell <= 0 || cfg.Mu <= 0 {
		return nil, fmt.Errorf("experiments: invalid Figure 6 config %+v", cfg)
	}
	cfg.Runs = clampRuns(cfg.Runs)
	tau := cfg.Mu * (cfg.K + 6*cfg.Z/cfg.Ell)

	names := cfg.Datasets
	if len(names) == 0 {
		names = dataset.Names()
	}
	out := &Figure6Result{}
	for di, name := range names {
		base, err := dataset.Generate(name, cfg.BaseN, cfg.Seed+int64(di)*1009)
		if err != nil {
			return nil, err
		}
		for _, factor := range cfg.Factors {
			inflated, err := dataset.Inflate(base, factor, cfg.Seed+int64(factor))
			if err != nil {
				return nil, err
			}
			inj, err := dataset.InjectOutliers(inflated, cfg.Z, cfg.Seed+int64(factor)*7)
			if err != nil {
				return nil, err
			}
			var coresetSecs, solveSecs, totalSecs []float64
			for run := 0; run < cfg.Runs; run++ {
				res, err := core.KCenterOutliers(inj.Points, core.OutliersConfig{
					K: cfg.K, Z: cfg.Z, Ell: cfg.Ell,
					CoresetSize: tau,
					EpsHat:      cfg.EpsHat,
					Randomized:  true,
					Rand:        rand.New(rand.NewSource(cfg.Seed + int64(run))),
					Workers:     cfg.Workers,
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 6 %s x%d: %w", name, factor, err)
				}
				coresetSecs = append(coresetSecs, res.CoresetTime.Seconds())
				solveSecs = append(solveSecs, res.SolveTime.Seconds())
				totalSecs = append(totalSecs, res.CoresetTime.Seconds()+res.SolveTime.Seconds())
			}
			cs, err := Summarize(coresetSecs)
			if err != nil {
				return nil, err
			}
			ss, err := Summarize(solveSecs)
			if err != nil {
				return nil, err
			}
			ts, err := Summarize(totalSecs)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, Figure6Row{
				Dataset: name, Factor: factor, N: len(inj.Points),
				CoresetTime: cs, SolveTime: ss, TotalTime: ts,
			})
		}
	}
	return out, nil
}

// Figure7Config parameterises the processor-scalability experiment of
// Figure 7: the randomized MapReduce algorithm is run with parallelism ell =
// 1, 2, 4, ... while keeping the size of the union of the coresets fixed
// (tau_ell = UnionSize / ell), and the time is split into the coreset phase
// and the OutliersCluster phase.
type Figure7Config struct {
	Datasets []dataset.Name
	N        int
	K        int
	Z        int
	// Ells are the parallelism values (paper: 1, 2, 4, 8, 16).
	Ells []int
	// UnionSize is the fixed size of the union of the coresets (paper:
	// 8*(16k + 6z)). Zero derives it as Mu*(MaxEll*K + 6*Z) with Mu = 4.
	UnionSize int
	EpsHat    float64
	Runs      int
	Seed      int64
	// Workers is the distance-engine parallelism of every clustering run
	// (<= 0 selects one worker per CPU, 1 forces the sequential path).
	// The default configuration pins 1: Figure 7 measures time versus the
	// number of partitions ell, and an auto-parallel engine would hand the
	// small-ell runs the CPUs the large-ell runs get from partitioning,
	// flattening the curve the figure exists to show.
	Workers int
}

// DefaultFigure7Config returns the laptop-scale defaults.
func DefaultFigure7Config() Figure7Config {
	return Figure7Config{
		N:       40000,
		K:       10,
		Z:       30,
		Ells:    []int{1, 2, 4, 8},
		EpsHat:  0.25,
		Runs:    defaultRuns,
		Seed:    6,
		Workers: 1,
	}
}

// Figure7Row is one point of Figure 7.
type Figure7Row struct {
	Dataset dataset.Name
	Ell     int
	Tau     int
	// CoresetTime shrinks superlinearly with Ell (work per processor is
	// proportional to tau_ell * |S|/ell); SolveTime is constant because the
	// union size is fixed.
	CoresetTime Summary
	SolveTime   Summary
}

// Figure7Result holds the sweep.
type Figure7Result struct {
	Rows []Figure7Row
}

// Table renders the result.
func (r *Figure7Result) Table() *Table {
	t := NewTable("Figure 7: scalability with number of processors (fixed coreset-union size)",
		"dataset", "ell", "tau", "coreset(s)", "solve(s)")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Ell, row.Tau, row.CoresetTime, row.SolveTime)
	}
	return t
}

// RunFigure7 executes the Figure 7 sweep.
func RunFigure7(cfg Figure7Config) (*Figure7Result, error) {
	if cfg.N <= 0 || cfg.K <= 0 || cfg.Z < 0 || len(cfg.Ells) == 0 {
		return nil, fmt.Errorf("experiments: invalid Figure 7 config %+v", cfg)
	}
	cfg.Runs = clampRuns(cfg.Runs)
	unionSize := cfg.UnionSize
	if unionSize <= 0 {
		maxEll := 0
		for _, ell := range cfg.Ells {
			if ell > maxEll {
				maxEll = ell
			}
		}
		unionSize = 4 * (maxEll*cfg.K + 6*cfg.Z)
	}
	workloads, err := buildWorkloads(cfg.Datasets, cfg.N, func(dataset.Name) int { return cfg.K }, cfg.Z, cfg.Seed)
	if err != nil {
		return nil, err
	}

	out := &Figure7Result{}
	for wi := range workloads {
		w := workloads[wi]
		for _, ell := range cfg.Ells {
			tau := unionSize / ell
			if tau < cfg.K+cfg.Z {
				tau = cfg.K + cfg.Z
			}
			var coresetSecs, solveSecs []float64
			for run := 0; run < cfg.Runs; run++ {
				res, err := core.KCenterOutliers(w.Points, core.OutliersConfig{
					K: cfg.K, Z: cfg.Z, Ell: ell,
					CoresetSize: tau,
					EpsHat:      cfg.EpsHat,
					Randomized:  true,
					Rand:        rand.New(rand.NewSource(cfg.Seed + int64(run*31+ell))),
					Parallelism: ell,
					Workers:     cfg.Workers,
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 7 %s ell=%d: %w", w.Name, ell, err)
				}
				coresetSecs = append(coresetSecs, res.CoresetTime.Seconds())
				solveSecs = append(solveSecs, res.SolveTime.Seconds())
			}
			cs, err := Summarize(coresetSecs)
			if err != nil {
				return nil, err
			}
			ss, err := Summarize(solveSecs)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, Figure7Row{Dataset: w.Name, Ell: ell, Tau: tau, CoresetTime: cs, SolveTime: ss})
		}
	}
	return out, nil
}
