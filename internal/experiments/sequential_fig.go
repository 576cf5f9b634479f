package experiments

import (
	"fmt"

	"coresetclustering/internal/core"
	"coresetclustering/internal/dataset"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/outliers"
)

// Figure8Config parameterises the sequential comparison of Figure 8: on a
// small sample of each dataset (the paper uses 10,000 points so the quadratic
// baseline stays feasible), compare the running time and clustering radius of
//
//   - CharikarEtAl: the original sequential algorithm for k-center with
//     outliers;
//   - MalkomesEtAl: our sequential coreset algorithm with mu = 1;
//   - Ours(mu): the sequential coreset algorithm with mu = 2, 4, 8.
type Figure8Config struct {
	Datasets []dataset.Name
	// SampleN is the sample size per dataset.
	SampleN int
	K       int
	Z       int
	// Mus are the coreset multipliers beyond the MalkomesEtAl baseline
	// (paper: 2, 4, 8).
	Mus    []int
	EpsHat float64
	Runs   int
	Seed   int64
}

// DefaultFigure8Config returns the laptop-scale defaults.
func DefaultFigure8Config() Figure8Config {
	return Figure8Config{
		SampleN: 1200,
		K:       10,
		Z:       30,
		Mus:     []int{2, 4, 8},
		EpsHat:  0.25,
		Runs:    defaultRuns,
		Seed:    7,
	}
}

// Figure8Row is one bar of Figure 8.
type Figure8Row struct {
	Dataset   dataset.Name
	Algorithm string // "CharikarEtAl", "MalkomesEtAl", "Ours(mu=2)", ...
	Time      Summary
	Radius    Summary
}

// Figure8Result holds the comparison.
type Figure8Result struct {
	Rows []Figure8Row
}

// Table renders the result.
func (r *Figure8Result) Table() *Table {
	t := NewTable("Figure 8: sequential algorithms on dataset samples (time and radius)",
		"dataset", "algorithm", "time(s)", "radius")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Algorithm, row.Time, row.Radius)
	}
	return t
}

// RunFigure8 executes the Figure 8 comparison.
func RunFigure8(cfg Figure8Config) (*Figure8Result, error) {
	if cfg.SampleN <= 0 || cfg.K <= 0 || cfg.Z < 0 {
		return nil, fmt.Errorf("experiments: invalid Figure 8 config %+v", cfg)
	}
	cfg.Runs = clampRuns(cfg.Runs)

	names := cfg.Datasets
	if len(names) == 0 {
		names = dataset.Names()
	}

	type algo struct {
		name string
		run  func(pts metric.Dataset) (metric.Dataset, error)
	}
	algos := []algo{
		{
			name: "CharikarEtAl",
			run: func(pts metric.Dataset) (metric.Dataset, error) {
				res, err := outliers.CharikarEtAl(metric.EuclideanSpace, pts, cfg.K, cfg.Z)
				if err != nil {
					return nil, err
				}
				return res.Centers, nil
			},
		},
		{
			name: "MalkomesEtAl",
			run: func(pts metric.Dataset) (metric.Dataset, error) {
				res, err := core.SequentialKCenterOutliers(pts, cfg.K, cfg.Z, cfg.K+cfg.Z, cfg.EpsHat, nil)
				if err != nil {
					return nil, err
				}
				return res.Centers, nil
			},
		},
	}
	for _, mu := range cfg.Mus {
		mu := mu
		algos = append(algos, algo{
			name: fmt.Sprintf("Ours(mu=%d)", mu),
			run: func(pts metric.Dataset) (metric.Dataset, error) {
				res, err := core.SequentialKCenterOutliers(pts, cfg.K, cfg.Z, mu*(cfg.K+cfg.Z), cfg.EpsHat, nil)
				if err != nil {
					return nil, err
				}
				return res.Centers, nil
			},
		})
	}

	out := &Figure8Result{}
	for di, name := range names {
		full, err := dataset.Generate(name, cfg.SampleN*2, cfg.Seed+int64(di)*307)
		if err != nil {
			return nil, err
		}
		sample := dataset.Sample(full, cfg.SampleN, cfg.Seed+int64(di))
		inj, err := dataset.InjectOutliers(sample, cfg.Z, cfg.Seed+int64(di)*11)
		if err != nil {
			return nil, err
		}
		for _, a := range algos {
			var seconds, radii []float64
			for run := 0; run < cfg.Runs; run++ {
				shuffled := dataset.Shuffle(inj.Points, cfg.Seed+int64(run)*13)
				var centers metric.Dataset
				elapsed, err := timeIt(func() error {
					var err error
					centers, err = a.run(shuffled)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: figure 8 %s on %s: %w", a.name, name, err)
				}
				seconds = append(seconds, elapsed.Seconds())
				radii = append(radii, metric.NewEngine(1).RadiusExcluding(metric.EuclideanSpace, shuffled, centers, cfg.Z))
			}
			ts, err := Summarize(seconds)
			if err != nil {
				return nil, err
			}
			rs, err := Summarize(radii)
			if err != nil {
				return nil, err
			}
			out.Rows = append(out.Rows, Figure8Row{Dataset: name, Algorithm: a.name, Time: ts, Radius: rs})
		}
	}
	return out, nil
}
