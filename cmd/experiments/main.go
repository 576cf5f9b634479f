// Command experiments reproduces the evaluation section of the paper: one
// table per figure (Figures 2-8), printed in the same rows/series layout the
// paper plots.
//
// Usage:
//
//	experiments                      # run every figure at laptop-scale defaults
//	experiments -figure 4            # run only Figure 4
//	experiments -figure 2 -datasets higgs,wiki -runs 10 -scale 4
//
// The -scale flag multiplies the default dataset sizes; the defaults finish
// in a few minutes on a laptop, -scale 10 or more approaches the paper's
// regime (given time and memory).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"coresetclustering/internal/dataset"
	"coresetclustering/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		figure   = fs.Int("figure", 0, "figure to reproduce (2-8); 0 runs all")
		datasets = fs.String("datasets", "", "comma-separated dataset families (higgs,power,wiki); empty = all")
		runs     = fs.Int("runs", 0, "repetitions per configuration (0 = default)")
		scale    = fs.Float64("scale", 1, "multiplier applied to the default dataset sizes")
		seed     = fs.Int64("seed", 0, "base random seed (0 = per-figure defaults)")
		workers  = fs.Int("workers", 0, "distance-engine parallelism for the MapReduce figures (0 = one worker per CPU, 1 = sequential; radii are identical for any value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The timing figures (6 and 7) pin Workers to 1 by default; an explicit
	// -workers flag — including -workers 0 for one-per-CPU — overrides every
	// figure's default, so presence matters, not just the value.
	workersSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			workersSet = true
		}
	})
	applyWorkers := func(dst *int) {
		if workersSet {
			*dst = *workers
		}
	}
	if *figure != 0 && (*figure < 2 || *figure > 8) {
		return fmt.Errorf("figure must be between 2 and 8 (or 0 for all), got %d", *figure)
	}
	if *scale <= 0 {
		return fmt.Errorf("scale must be positive, got %v", *scale)
	}
	names, err := parseDatasets(*datasets)
	if err != nil {
		return err
	}

	type job struct {
		num int
		run func() (renderable, error)
	}
	scaleN := func(n int) int {
		s := int(float64(n) * *scale)
		if s < 1 {
			s = 1
		}
		return s
	}
	jobs := []job{
		{2, func() (renderable, error) {
			cfg := experiments.DefaultFigure2Config()
			applyCommon(&cfg.Datasets, &cfg.Runs, &cfg.Seed, names, *runs, *seed)
			cfg.N = scaleN(cfg.N)
			applyWorkers(&cfg.Workers)
			return experiments.RunFigure2(cfg)
		}},
		{3, func() (renderable, error) {
			cfg := experiments.DefaultFigure3Config()
			applyCommon(&cfg.Datasets, &cfg.Runs, &cfg.Seed, names, *runs, *seed)
			cfg.N = scaleN(cfg.N)
			return experiments.RunFigure3(cfg)
		}},
		{4, func() (renderable, error) {
			cfg := experiments.DefaultFigure4Config()
			applyCommon(&cfg.Datasets, &cfg.Runs, &cfg.Seed, names, *runs, *seed)
			cfg.N = scaleN(cfg.N)
			applyWorkers(&cfg.Workers)
			return experiments.RunFigure4(cfg)
		}},
		{5, func() (renderable, error) {
			cfg := experiments.DefaultFigure5Config()
			applyCommon(&cfg.Datasets, &cfg.Runs, &cfg.Seed, names, *runs, *seed)
			cfg.N = scaleN(cfg.N)
			return experiments.RunFigure5(cfg)
		}},
		{6, func() (renderable, error) {
			cfg := experiments.DefaultFigure6Config()
			applyCommon(&cfg.Datasets, &cfg.Runs, &cfg.Seed, names, *runs, *seed)
			cfg.BaseN = scaleN(cfg.BaseN)
			applyWorkers(&cfg.Workers)
			return experiments.RunFigure6(cfg)
		}},
		{7, func() (renderable, error) {
			cfg := experiments.DefaultFigure7Config()
			applyCommon(&cfg.Datasets, &cfg.Runs, &cfg.Seed, names, *runs, *seed)
			cfg.N = scaleN(cfg.N)
			applyWorkers(&cfg.Workers)
			return experiments.RunFigure7(cfg)
		}},
		{8, func() (renderable, error) {
			cfg := experiments.DefaultFigure8Config()
			applyCommon(&cfg.Datasets, &cfg.Runs, &cfg.Seed, names, *runs, *seed)
			cfg.SampleN = scaleN(cfg.SampleN)
			return experiments.RunFigure8(cfg)
		}},
	}

	for _, j := range jobs {
		if *figure != 0 && j.num != *figure {
			continue
		}
		start := time.Now()
		res, err := j.run()
		if err != nil {
			return fmt.Errorf("figure %d: %w", j.num, err)
		}
		if err := res.Table().Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "(figure %d completed in %v)\n\n", j.num, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// renderable is satisfied by every figure result.
type renderable interface {
	Table() *experiments.Table
}

func applyCommon(datasets *[]dataset.Name, runs *int, seed *int64, names []dataset.Name, wantRuns int, wantSeed int64) {
	if len(names) > 0 {
		*datasets = names
	}
	if wantRuns > 0 {
		*runs = wantRuns
	}
	if wantSeed != 0 {
		*seed = wantSeed
	}
}

func parseDatasets(s string) ([]dataset.Name, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []dataset.Name
	for _, part := range strings.Split(s, ",") {
		name := dataset.Name(strings.TrimSpace(strings.ToLower(part)))
		switch name {
		case dataset.Higgs, dataset.Power, dataset.Wiki:
			out = append(out, name)
		default:
			return nil, fmt.Errorf("unknown dataset %q (want higgs, power or wiki)", part)
		}
	}
	return out, nil
}
