package main

import (
	"path/filepath"
	"testing"

	"coresetclustering/internal/dataset"
)

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "points.csv")
	err := run([]string{"-family", "power", "-n", "250", "-outliers", "5", "-inflate", "2", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// 250 points inflated x2 plus 5 outliers.
	if len(ds) != 505 {
		t.Errorf("generated %d points, want 505", len(ds))
	}
	if ds.Dim() != 7 {
		t.Errorf("dimension = %d, want 7", ds.Dim())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-family", "bogus", "-n", "10"}); err == nil {
		t.Error("unknown family accepted")
	}
	if err := run([]string{"-n", "0"}); err == nil {
		t.Error("n=0 accepted")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-family", "higgs", "-n", "10", "-out", "/no/such/dir/x.csv"}); err == nil {
		t.Error("unwritable output accepted")
	}
}

func TestRunWritesFlatLayout(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "points.kcfl")
	if err := run([]string{"-family", "higgs", "-n", "200", "-layout", "flat", "-out", out}); err != nil {
		t.Fatal(err)
	}
	// The flat binary round-trips through the generic loader...
	ds, err := dataset.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 200 {
		t.Errorf("flat file holds %d points, want 200", len(ds))
	}
	// ...and matches the CSV output of the same generation coordinate for
	// coordinate.
	csvOut := filepath.Join(dir, "points.csv")
	if err := run([]string{"-family", "higgs", "-n", "200", "-out", csvOut}); err != nil {
		t.Fatal(err)
	}
	want, err := dataset.LoadFile(csvOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ds) {
		t.Fatalf("flat and CSV outputs differ in size: %d vs %d", len(ds), len(want))
	}
	for i := range want {
		if !want[i].Equal(ds[i]) {
			t.Fatalf("point %d differs between flat and CSV layouts", i)
		}
	}
	if err := run([]string{"-family", "higgs", "-n", "10", "-layout", "bogus", "-out", out}); err == nil {
		t.Error("unknown layout accepted")
	}
}
