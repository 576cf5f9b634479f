package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"coresetclustering/internal/dataset"
)

func TestRunGenerateFlow(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-generate", "higgs", "-n", "400", "-k", "5", "-mu", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "radius:") || !strings.Contains(s, "MapReduce k-center") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

// TestRunWorkersFlagDeterminism checks that -workers only changes the
// schedule: the reported radius is identical at 1 and 8 workers.
func TestRunWorkersFlagDeterminism(t *testing.T) {
	radius := func(workers string) string {
		var out bytes.Buffer
		err := run([]string{"-generate", "higgs", "-n", "2000", "-k", "5", "-workers", workers}, &out)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "radius:") {
				return line
			}
		}
		t.Fatalf("no radius line in output:\n%s", out.String())
		return ""
	}
	if seq, par := radius("1"), radius("8"); seq != par {
		t.Errorf("radius differs across workers: %q vs %q", seq, par)
	}
}

func TestRunOutliersFlow(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-generate", "power", "-n", "300", "-k", "4", "-z", "5", "-mu", "2", "-randomized"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "outliers") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestRunStreamingFlow(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-generate", "higgs", "-n", "300", "-k", "4", "-z", "5", "-streaming"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "radius:") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-generate", "higgs", "-n", "300", "-k", "4", "-streaming"}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSVInputAndCenterOutput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	centers := filepath.Join(dir, "centers.csv")
	ds, err := dataset.Generate(dataset.Higgs, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.SaveCSVFile(in, ds); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-input", in, "-k", "3", "-centers", centers}, &out); err != nil {
		t.Fatal(err)
	}
	saved, err := dataset.LoadFile(centers)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) != 3 {
		t.Errorf("saved centers = %d, want 3", len(saved))
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-k", "3"}, &out); err == nil {
		t.Error("missing input accepted")
	}
	if err := run([]string{"-generate", "higgs", "-input", "x.csv"}, &out); err == nil {
		t.Error("both -input and -generate accepted")
	}
	if err := run([]string{"-generate", "higgs", "-k", "0"}, &out); err == nil {
		t.Error("k=0 accepted")
	}
	if err := run([]string{"-generate", "nope", "-k", "2"}, &out); err == nil {
		t.Error("unknown family accepted")
	}
	if err := run([]string{"-input", "/does/not/exist.csv", "-k", "2"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-bogusflag"}, &out); err == nil {
		t.Error("bogus flag accepted")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-generate", "higgs", "-n", "400", "-k", "5", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if res.Algorithm != "mapreduce-kcenter" || res.K != 5 || res.Points != 400 {
		t.Errorf("unexpected JSON result: %+v", res)
	}
	if len(res.Centers) != 5 || res.Radius <= 0 {
		t.Errorf("JSON result missing centers/radius: %+v", res)
	}
	if res.Evaluations <= 0 || !bytes.Contains(out.Bytes(), []byte(`"distanceEvaluations"`)) {
		t.Errorf("JSON result missing distanceEvaluations: %s", out.String())
	}
	for _, c := range res.Centers {
		if len(c) != res.Dimensions {
			t.Errorf("center dimension %d, want %d", len(c), res.Dimensions)
		}
	}
}

func TestRunJSONStreamingOutliers(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-generate", "power", "-n", "300", "-k", "3", "-z", "4", "-streaming", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if res.Algorithm != "streaming-outliers" || res.Z != 4 || res.Budget <= 0 {
		t.Errorf("unexpected JSON result: %+v", res)
	}
	if res.WorkingMemory <= 0 || res.WorkingMemory > res.Budget {
		t.Errorf("working memory %d outside (0, %d]", res.WorkingMemory, res.Budget)
	}
}

// TestRunJSONDeterministicAcrossWorkers: the machine-readable output obeys
// the same determinism contract as the human one.
func TestRunJSONDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers string) string {
		var out bytes.Buffer
		if err := run([]string{"-generate", "higgs", "-n", "1500", "-k", "4", "-workers", workers, "-json"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if seq, par := render("1"), render("8"); seq != par {
		t.Errorf("JSON output differs across workers:\n%s\nvs\n%s", seq, par)
	}
}
