// Command kcenter clusters a CSV dataset with the coreset-based k-center
// algorithms of this repository: the parallel MapReduce-style algorithm
// (default), the variant with outliers, or the one-pass streaming algorithms.
//
// Usage:
//
//	kcenter -input points.csv -k 20
//	kcenter -input points.csv -k 20 -z 200 -randomized
//	kcenter -input points.csv -k 20 -z 200 -streaming -budget 880
//	kcenter -generate higgs -n 50000 -k 50 -mu 8
//	kcenter -generate higgs -n 50000 -k 50 -json
//
// The tool prints the clustering radius, the per-phase running times, and
// (optionally) writes the selected centers to a CSV file. With -json a single
// machine-readable object is printed instead, for scripting against
// cmd/kcenterd (its ingest endpoint accepts the same [[...], ...] point
// arrays this mode emits).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kcenter:", err)
		os.Exit(1)
	}
}

// result collects everything a run produces, for both output modes. The
// JSON field names are part of the CLI's scripting surface.
type result struct {
	Algorithm        string          `json:"algorithm"`
	Points           int             `json:"points"`
	Dimensions       int             `json:"dimensions"`
	K                int             `json:"k"`
	Z                int             `json:"z,omitempty"`
	Randomized       bool            `json:"randomized,omitempty"`
	Partitions       int             `json:"partitions,omitempty"`
	CoresetUnionSize int             `json:"coresetUnionSize,omitempty"`
	Evaluations      int64           `json:"distanceEvaluations,omitempty"`  // spent by the greedy (GMM) runs
	FinalEvaluations int64           `json:"finalPassEvaluations,omitempty"` // spent by the final radius/assignment pass
	Budget           int             `json:"budget,omitempty"`
	WorkingMemory    int             `json:"workingMemory,omitempty"`
	Radius           float64         `json:"radius"`
	Centers          kcenter.Dataset `json:"centers"`

	coresetTime time.Duration
	finalTime   time.Duration
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kcenter", flag.ContinueOnError)
	var (
		input      = fs.String("input", "", "input CSV file (one point per line)")
		generate   = fs.String("generate", "", "generate a synthetic dataset instead of reading one: higgs, power or wiki")
		n          = fs.Int("n", 10000, "number of points to generate (with -generate)")
		seed       = fs.Int64("seed", 42, "random seed for generation and randomized partitioning")
		k          = fs.Int("k", 10, "number of centers")
		z          = fs.Int("z", 0, "number of outliers to disregard (0 = plain k-center)")
		mu         = fs.Int("mu", 4, "coreset multiplier (per-partition coreset size = mu*(k+z))")
		eps        = fs.Float64("eps", 0, "precision parameter; overrides -mu when positive")
		ell        = fs.Int("ell", 0, "number of partitions (0 = sqrt(n/(k+z)))")
		randomized = fs.Bool("randomized", false, "use randomized partitioning (outlier variant only)")
		workers    = fs.Int("workers", 0, "distance-engine parallelism (0 = one worker per CPU, 1 = sequential; results are identical for any value)")
		spaceName  = fs.String("space", "euclidean", "metric space: euclidean, manhattan, chebyshev, angular or cosine")
		streamFlag = fs.Bool("streaming", false, "use the one-pass streaming algorithm instead of the MapReduce one")
		budget     = fs.Int("budget", 0, "streaming working-memory budget in points (default mu*(k+z))")
		centersOut = fs.String("centers", "", "write the selected centers to this CSV file")
		jsonFlag   = fs.Bool("json", false, "print a single machine-readable JSON object instead of the human report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k <= 0 {
		return fmt.Errorf("k must be positive, got %d", *k)
	}

	points, err := loadPoints(*input, *generate, *n, *seed)
	if err != nil {
		return err
	}
	space := kcenter.SpaceByName(*spaceName)
	if space == nil {
		return fmt.Errorf("unknown space %q (want one of euclidean, manhattan, chebyshev, angular, cosine)", *spaceName)
	}

	var res *result
	switch {
	case *streamFlag:
		res, err = runStreaming(points, space, *k, *z, *mu, *budget, *workers)
	case *z > 0:
		res, err = runOutliers(points, space, *k, *z, *mu, *eps, *ell, *randomized, *seed, *workers)
	default:
		res, err = runPlain(points, space, *k, *mu, *eps, *ell, *workers)
	}
	if err != nil {
		return err
	}
	res.Points = len(points)
	res.Dimensions = points.Dim()

	if *jsonFlag {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		printHuman(out, res)
	}
	if *centersOut != "" {
		if err := dataset.SaveCSVFile(*centersOut, res.Centers); err != nil {
			return err
		}
		if !*jsonFlag {
			fmt.Fprintf(out, "centers written to %s\n", *centersOut)
		}
	}
	return nil
}

func printHuman(out io.Writer, res *result) {
	fmt.Fprintf(out, "dataset: %d points, %d dimensions\n", res.Points, res.Dimensions)
	switch res.Algorithm {
	case "mapreduce-kcenter":
		fmt.Fprintf(out, "algorithm: MapReduce k-center (%d partitions, coreset union %d points)\n",
			res.Partitions, res.CoresetUnionSize)
		fmt.Fprintf(out, "phase times: coreset %v, final %v\n", res.coresetTime, res.finalTime)
	case "mapreduce-outliers":
		variant := "deterministic"
		if res.Randomized {
			variant = "randomized"
		}
		fmt.Fprintf(out, "algorithm: MapReduce k-center with %d outliers (%s, %d partitions, coreset union %d points)\n",
			res.Z, variant, res.Partitions, res.CoresetUnionSize)
		fmt.Fprintf(out, "phase times: coreset %v, solve %v\n", res.coresetTime, res.finalTime)
	default:
		fmt.Fprintf(out, "algorithm: streaming (budget %d points, working memory %d)\n",
			res.Budget, res.WorkingMemory)
	}
	fmt.Fprintf(out, "centers: %d\n", len(res.Centers))
	fmt.Fprintf(out, "radius:  %.6g\n", res.Radius)
}

func loadPoints(input, generate string, n int, seed int64) (kcenter.Dataset, error) {
	switch {
	case input != "" && generate != "":
		return nil, fmt.Errorf("use either -input or -generate, not both")
	case input != "":
		// Auto-detects the binary flat-buffer layout (datagen -layout flat)
		// and falls back to CSV.
		return dataset.LoadFile(input)
	case generate != "":
		return dataset.Generate(dataset.Name(generate), n, seed)
	default:
		return nil, fmt.Errorf("one of -input or -generate is required")
	}
}

func options(space kcenter.Space, mu int, eps float64, ell int, randomized bool, seed int64, workers int) []kcenter.Option {
	opts := []kcenter.Option{kcenter.WithSpace(space)}
	if eps > 0 {
		opts = append(opts, kcenter.WithPrecision(eps))
	} else if mu > 0 {
		opts = append(opts, kcenter.WithCoresetMultiplier(mu))
	}
	if ell > 0 {
		opts = append(opts, kcenter.WithPartitions(ell))
	}
	if randomized {
		opts = append(opts, kcenter.WithRandomizedPartitioning(seed))
	}
	if workers != 0 {
		opts = append(opts, kcenter.WithWorkers(workers))
	}
	return opts
}

func runPlain(points kcenter.Dataset, space kcenter.Space, k, mu int, eps float64, ell, workers int) (*result, error) {
	res, err := kcenter.Cluster(points, k, options(space, mu, eps, ell, false, 0, workers)...)
	if err != nil {
		return nil, err
	}
	return &result{
		Algorithm:        "mapreduce-kcenter",
		K:                k,
		Partitions:       res.Stats.Partitions,
		CoresetUnionSize: res.Stats.CoresetUnionSize,
		Evaluations:      res.Stats.DistanceEvaluations,
		FinalEvaluations: res.Stats.FinalPassEvaluations,
		Radius:           res.Radius,
		Centers:          res.Centers,
		coresetTime:      res.Stats.CoresetTime,
		finalTime:        res.Stats.FinalTime,
	}, nil
}

func runOutliers(points kcenter.Dataset, space kcenter.Space, k, z, mu int, eps float64, ell int, randomized bool, seed int64, workers int) (*result, error) {
	res, err := kcenter.ClusterWithOutliers(points, k, z, options(space, mu, eps, ell, randomized, seed, workers)...)
	if err != nil {
		return nil, err
	}
	return &result{
		Algorithm:        "mapreduce-outliers",
		K:                k,
		Z:                z,
		Randomized:       randomized,
		Partitions:       res.Stats.Partitions,
		CoresetUnionSize: res.Stats.CoresetUnionSize,
		Evaluations:      res.Stats.DistanceEvaluations,
		FinalEvaluations: res.Stats.FinalPassEvaluations,
		Radius:           res.Radius,
		Centers:          res.Centers,
		coresetTime:      res.Stats.CoresetTime,
		finalTime:        res.Stats.FinalTime,
	}, nil
}

func runStreaming(points kcenter.Dataset, space kcenter.Space, k, z, mu, budget, workers int) (*result, error) {
	if budget <= 0 {
		budget = mu * (k + z)
		if budget < k+z+1 {
			budget = k + z + 1
		}
	}
	opts := []kcenter.Option{kcenter.WithSpace(space)}
	if workers != 0 {
		opts = append(opts, kcenter.WithWorkers(workers))
	}
	if z > 0 {
		s, err := kcenter.NewStreamingOutliers(k, z, budget, opts...)
		if err != nil {
			return nil, err
		}
		if err := s.ObserveAll(points); err != nil {
			return nil, err
		}
		centers, err := s.Centers()
		if err != nil {
			return nil, err
		}
		radius, err := kcenter.RadiusExcluding(points, centers, z, opts...)
		if err != nil {
			return nil, err
		}
		return &result{
			Algorithm:     "streaming-outliers",
			K:             k,
			Z:             z,
			Budget:        budget,
			WorkingMemory: s.WorkingMemory(),
			Radius:        radius,
			Centers:       centers,
		}, nil
	}
	s, err := kcenter.NewStreamingKCenter(k, budget, opts...)
	if err != nil {
		return nil, err
	}
	if err := s.ObserveAll(points); err != nil {
		return nil, err
	}
	centers, err := s.Centers()
	if err != nil {
		return nil, err
	}
	radius, err := kcenter.Radius(points, centers, opts...)
	if err != nil {
		return nil, err
	}
	return &result{
		Algorithm:     "streaming-kcenter",
		K:             k,
		Budget:        budget,
		WorkingMemory: s.WorkingMemory(),
		Radius:        radius,
		Centers:       centers,
	}, nil
}
