package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the harness checks itself
// against, so the file and the program cannot drift apart.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads BENCHMARK.json from the repository root (the parent of this
// module's directory, which is the working directory).
func loadSpec() (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("run from the bench directory of a checkout: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		return nil, fmt.Errorf("BENCHMARK.json workloads %v differ from the harness's %v", names, workloadNames())
	}
	return &spec, nil
}

// validate checks that a pass emitted exactly the metrics BENCHMARK.json
// lists for it, each with the listed unit and a finite value.
func (s *benchmarkSpec) validate(pass int, res *result) error {
	want := s.EndToEnd
	if pass == 1 {
		want = s.PerLayer
	}
	for _, m := range want {
		got, ok := res.metrics[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not emitted", m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case got.Value != got.Value || got.Value > 1e300 || got.Value < -1e300:
			return fmt.Errorf("metric %s is not finite", m.Name)
		}
	}
	if len(res.metrics) != len(want) {
		for name := range res.metrics {
			listed := false
			for _, m := range want {
				listed = listed || m.Name == name
			}
			if !listed {
				return fmt.Errorf("metric %s was emitted but is not in BENCHMARK.json", name)
			}
		}
	}
	return nil
}
