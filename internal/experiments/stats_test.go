package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("empty sample accepted")
	}
	s, err := Summarize([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 5 || s.StdDev != 0 || s.CI95 != 0 || s.N != 1 || s.Min != 5 || s.Max != 5 {
		t.Errorf("singleton summary = %+v", s)
	}
	s, err = Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	// Sample standard deviation of this classic example is ~2.138.
	if math.Abs(s.StdDev-2.13809) > 1e-4 {
		t.Errorf("stddev = %v, want ~2.138", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.CI95 <= 0 {
		t.Error("CI95 not computed")
	}
	if !strings.Contains(s.String(), "±") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Errorf("Throughput = %v, want 1000", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Errorf("Throughput with zero duration = %v, want 0", got)
	}
	if got := Throughput(500, 500*time.Millisecond); got != 1000 {
		t.Errorf("Throughput = %v, want 1000", got)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3); got != 2 {
		t.Errorf("Ratio = %v, want 2", got)
	}
	if got := Ratio(0, 0); got != 1 {
		t.Errorf("Ratio(0,0) = %v, want 1", got)
	}
	if got := Ratio(3, 0); !math.IsInf(got, 1) {
		t.Errorf("Ratio(3,0) = %v, want +Inf", got)
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("Figure X", "dataset", "mu", "ratio", "time")
	tab.AddRow("higgs", 2, 1.0523, 1500*time.Millisecond)
	tab.AddRow("power", 4, Summary{Mean: 1.01, CI95: 0.02}, "n/a")
	if len(tab.rows) != 2 {
		t.Fatalf("%d rows, want 2", len(tab.rows))
	}
	out := tab.String()
	for _, want := range []string{"Figure X", "dataset", "higgs", "1.052", "1.5s", "±"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	if err := tab.Render(nil); err == nil {
		t.Error("nil writer accepted")
	}
	// Rows shorter than the header are padded.
	tab.AddRow("wiki")
	if len(tab.rows) != 3 {
		t.Error("short row not added")
	}
	if !strings.Contains(tab.String(), "wiki") {
		t.Error("short row not rendered")
	}
}
