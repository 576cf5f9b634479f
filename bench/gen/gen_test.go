package gen

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"coresetclustering/internal/metric"
)

func TestSameSeedSameBytes(t *testing.T) {
	a := New(7, "ingest_bulk", "s0", 64, 5e-4)
	b := New(7, "ingest_bulk", "s0", 64, 5e-4)
	// Out of order on purpose: a batch depends on its index, not on history.
	want := AppendKCFL(nil, a.Batch(5))
	b.Batch(9)
	b.Batch(0)
	if got := AppendKCFL(nil, b.Batch(5)); !bytes.Equal(got, want) {
		t.Fatal("same seed, workload, stream and batch index gave different KCFL bytes")
	}
	if !bytes.Equal(AppendJSON(nil, a.Batch(5)), AppendJSON(nil, b.Batch(5))) {
		t.Fatal("same inputs gave different JSON bytes")
	}
	if got := a.Batches(4, 3)[64*Dim : 2*64*Dim]; !bytes.Equal(AppendKCFL(nil, got), want) {
		t.Fatal("Batches(4,3) does not contain Batch(5)")
	}
}

func TestDifferentInputsDiffer(t *testing.T) {
	base := AppendKCFL(nil, New(7, "ingest_bulk", "s0", 64, 0).Batch(3))
	for name, other := range map[string]*Source{
		"seed":     New(8, "ingest_bulk", "s0", 64, 0),
		"workload": New(7, "cluster", "s0", 64, 0),
		"stream":   New(7, "ingest_bulk", "s1", 64, 0),
	} {
		if bytes.Equal(AppendKCFL(nil, other.Batch(3)), base) {
			t.Errorf("changing the %s left the batch unchanged", name)
		}
	}
	if bytes.Equal(AppendKCFL(nil, New(7, "ingest_bulk", "s0", 64, 0).Batch(4)), base) {
		t.Error("batches 3 and 4 are identical")
	}
}

// The encoders are written independently of the daemon's codecs; both must
// decode to the exact float64 bits that were generated.
func TestEncodersRoundTrip(t *testing.T) {
	coords := New(1, "serve_mixed", "hot", 16, 4e-3).Batch(2)

	f, rest, err := metric.DecodeFlatFrame(AppendKCFL(nil, coords))
	if err != nil || len(rest) != 0 {
		t.Fatalf("daemon decoder rejects the KCFL frame: %v (%d trailing bytes)", err, len(rest))
	}
	if f.Dim() != Dim || f.Len() != 16 {
		t.Fatalf("decoded %d points of dimension %d", f.Len(), f.Dim())
	}
	var req struct {
		Points [][]float64 `json:"points"`
	}
	if err := json.Unmarshal(AppendJSON(nil, coords), &req); err != nil {
		t.Fatal(err)
	}
	for i, c := range coords {
		if math.Float64bits(f.Coords()[i]) != math.Float64bits(c) {
			t.Fatalf("KCFL coordinate %d changed", i)
		}
		if math.Float64bits(req.Points[i/Dim][i%Dim]) != math.Float64bits(c) {
			t.Fatalf("JSON coordinate %d changed", i)
		}
	}
}

func TestWithOutliers(t *testing.T) {
	src := New(3, "mr_outliers", "rep0", 100, 0)
	in := src.Batches(0, 10)
	all, mask := src.WithOutliers(in, 8)
	if len(all) != (1000+8)*Dim || len(mask) != 1008 {
		t.Fatalf("got %d coordinates and %d mask entries", len(all), len(mask))
	}
	planted, next := 0, 0
	for i, out := range mask {
		row := all[i*Dim : (i+1)*Dim]
		if !out {
			if !bytes.Equal(AppendKCFL(nil, row), AppendKCFL(nil, in[next*Dim:(next+1)*Dim])) {
				t.Fatalf("inlier %d is not input point %d", i, next)
			}
			next++
			continue
		}
		planted++
		var d float64
		for _, c := range row {
			d += (c - boxSide/2) * (c - boxSide/2)
		}
		if math.Abs(math.Sqrt(d)-outlierGap) > 1e-6 {
			t.Fatalf("outlier %d sits %.3f from the box centre, want %.0f", i, math.Sqrt(d), outlierGap)
		}
	}
	if planted != 8 {
		t.Fatalf("%d outliers planted, want 8", planted)
	}
}
