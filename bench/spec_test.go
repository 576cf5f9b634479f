package main

import (
	"sort"
	"testing"

	kcenter "coresetclustering"
	"coresetclustering/bench/gen"
)

// BENCHMARK.json and the harness must name the same workloads and metrics,
// with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec, err := loadSpec() // fails on a workload mismatch
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind   string
		listed []specMetric
		table  map[string]string
	}{
		{"end_to_end", spec.EndToEnd, endToEndUnits},
		{"per_layer", spec.PerLayer, perLayerUnits},
	} {
		seen := map[string]bool{}
		for _, m := range c.listed {
			seen[m.Name] = true
			if unit, ok := c.table[m.Name]; !ok {
				t.Errorf("%s metric %s is in BENCHMARK.json but not in the harness", c.kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json says %q, the harness %q", c.kind, m.Name, m.Unit, unit)
			}
		}
		var missing []string
		for name := range c.table {
			if !seen[name] {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s metrics in the harness but not in BENCHMARK.json: %v", c.kind, missing)
		}
	}
}

// The drift constants exist to keep the doubling coreset filled; hold the
// large-budget one to that on serve_mixed's own stream.
func TestServeMixedStreamKeepsTheCoresetFilled(t *testing.T) {
	src := gen.New(1, "serve_mixed", "hot", serveBatch, driftLargeBudget)
	s, err := kcenter.NewStreamingKCenter(daemonK, serveBudget)
	if err != nil {
		t.Fatal(err)
	}
	const points, skip, every = 70_000, 20_000, 500
	var fill float64
	samples := 0
	for i, p := range dataset(src.Batches(0, points/serveBatch)) {
		if err := s.Observe(p); err != nil {
			t.Fatal(err)
		}
		if i >= skip && i%every == 0 {
			fill += float64(s.WorkingMemory()) / serveBudget
			samples++
		}
	}
	if mean := fill / float64(samples); mean < 0.6 {
		t.Fatalf("coreset fill averaged %.0f %% of the budget, want at least 60 %%", 100*mean)
	}
}
