package dataset

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"coresetclustering/internal/metric"
)

func TestGenerateFamilies(t *testing.T) {
	for _, name := range Names() {
		t.Run(string(name), func(t *testing.T) {
			ds, err := Generate(name, 500, 42)
			if err != nil {
				t.Fatal(err)
			}
			if len(ds) != 500 {
				t.Fatalf("generated %d points, want 500", len(ds))
			}
			want := 7
			if name == Wiki {
				want = 50
			}
			if ds.Dim() != want {
				t.Errorf("dimension = %d, want %d", ds.Dim(), want)
			}
			if err := ds.Validate(); err != nil {
				t.Errorf("generated dataset invalid: %v", err)
			}
			if name.DefaultK() <= 0 {
				t.Errorf("DefaultK = %d, want positive", name.DefaultK())
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Higgs, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Higgs, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("generation not deterministic at point %d", i)
		}
	}
	c, err := Generate(Higgs, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Higgs, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Generate(Name("nope"), 10, 1); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestWikiLikeIsRoughlyNormalised(t *testing.T) {
	ds, err := Generate(Wiki, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ds {
		n := metric.Euclidean(p, make(metric.Point, len(p)))
		if math.Abs(n-1) > 1e-9 {
			t.Fatalf("point %d norm = %v, want 1", i, n)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	ds, err := Generate(Power, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	sh := Shuffle(ds, 9)
	if len(sh) != len(ds) {
		t.Fatalf("shuffle changed the size")
	}
	// Same multiset: compare sorted fingerprints.
	fp := func(d metric.Dataset) map[string]int {
		m := map[string]int{}
		for _, p := range d {
			m[p.String()]++
		}
		return m
	}
	a, b := fp(ds), fp(sh)
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("shuffle is not a permutation (key %s)", k)
		}
	}
}

func TestInjectOutliers(t *testing.T) {
	ds, err := Generate(Higgs, 400, 13)
	if err != nil {
		t.Fatal(err)
	}
	z := 20
	res, err := InjectOutliers(ds, z, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(ds)+z {
		t.Fatalf("augmented size = %d, want %d", len(res.Points), len(ds)+z)
	}
	if len(res.OutlierIndices) != z {
		t.Fatalf("outlier indices = %d, want %d", len(res.OutlierIndices), z)
	}
	// Every injected point is at distance >= 99*rMEB from every original
	// point (paper's guarantee).
	r := res.MEBRadius
	if r <= 0 {
		t.Fatal("MEB radius not recorded")
	}
	for _, oi := range res.OutlierIndices {
		o := res.Points[oi]
		for i := 0; i < len(ds); i++ {
			if metric.Euclidean(o, res.Points[i]) < 99*r*0.99 { // tiny slack for the approximate MEB
				t.Fatalf("outlier %d too close to original point %d", oi, i)
			}
		}
	}
	// Injected points are mutually at distance >= 10*rMEB.
	for i := 0; i < z; i++ {
		for j := i + 1; j < z; j++ {
			a := res.Points[res.OutlierIndices[i]]
			b := res.Points[res.OutlierIndices[j]]
			if metric.Euclidean(a, b) < 10*r*0.99 {
				t.Fatalf("outliers %d and %d closer than 10*rMEB", i, j)
			}
		}
	}
}

func TestInjectOutliersEdgeCases(t *testing.T) {
	if _, err := InjectOutliers(nil, 5, 1); err == nil {
		t.Error("empty dataset accepted")
	}
	ds := metric.Dataset{{0, 0}, {1, 1}}
	if _, err := InjectOutliers(ds, -1, 1); err == nil {
		t.Error("negative z accepted")
	}
	res, err := InjectOutliers(ds, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || len(res.OutlierIndices) != 0 {
		t.Errorf("z=0 injection changed the dataset")
	}
	// Degenerate dataset where all points coincide still works.
	same := metric.Dataset{{5, 5}, {5, 5}, {5, 5}}
	res, err = InjectOutliers(same, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Errorf("coincident-point injection size = %d, want 6", len(res.Points))
	}
}

func TestInflate(t *testing.T) {
	ds, err := Generate(Power, 150, 19)
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := Inflate(ds, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(inflated) != 600 {
		t.Fatalf("inflated size = %d, want 600", len(inflated))
	}
	// The original points are preserved as a prefix.
	for i := range ds {
		if !inflated[i].Equal(ds[i]) {
			t.Fatalf("inflation did not preserve original point %d", i)
		}
	}
	// The synthetic points stay within a reasonable envelope of the original
	// bounding box (10% noise of the range per coordinate).
	lo, hi, err := ds.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	for i := len(ds); i < len(inflated); i++ {
		for d := 0; d < ds.Dim(); d++ {
			span := hi[d] - lo[d]
			if inflated[i][d] < lo[d]-span || inflated[i][d] > hi[d]+span {
				t.Fatalf("inflated point %d coordinate %d (%v) far outside the envelope", i, d, inflated[i][d])
			}
		}
	}
}

func TestInflateEdgeCases(t *testing.T) {
	if _, err := Inflate(nil, 2, 1); err == nil {
		t.Error("empty dataset accepted")
	}
	ds := metric.Dataset{{1, 2}}
	if _, err := Inflate(ds, 0, 1); err == nil {
		t.Error("factor=0 accepted")
	}
	same, err := Inflate(ds, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 1 || !same[0].Equal(ds[0]) {
		t.Error("factor=1 should return a copy of the input")
	}
	same[0][0] = 99
	if ds[0][0] == 99 {
		t.Error("factor=1 result shares storage with the input")
	}
}

func TestSample(t *testing.T) {
	ds, err := Generate(Higgs, 100, 29)
	if err != nil {
		t.Fatal(err)
	}
	s := Sample(ds, 10, 31)
	if len(s) != 10 {
		t.Fatalf("sample size = %d, want 10", len(s))
	}
	all := Sample(ds, 1000, 31)
	if len(all) != 100 {
		t.Fatalf("oversized sample = %d, want 100", len(all))
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		ds, err := Generate(Power, 30, seed)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ds); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if len(back) != len(ds) {
			return false
		}
		for i := range ds {
			if !ds[i].Equal(back[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Errorf("CSV round trip failed: %v", err)
	}
}

func TestReadCSVEdgeCases(t *testing.T) {
	if _, err := ReadCSV(nil); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,abc\n")); err == nil {
		t.Error("non-numeric field accepted")
	}
	ds, err := ReadCSV(strings.NewReader("# comment\n\n1, 2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || !ds[0].Equal(metric.Point{1, 2}) {
		t.Errorf("parsed dataset = %v", ds)
	}
	if err := WriteCSV(nil, ds); err == nil {
		t.Error("nil writer accepted")
	}
}

func TestCSVFileHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "points.csv")
	ds := metric.Dataset{{1, 2}, {3, 4.5}}
	if err := SaveCSVFile(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !back[1].Equal(metric.Point{3, 4.5}) {
		t.Errorf("loaded dataset = %v", back)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
	if err := SaveCSVFile(filepath.Join(dir, "nodir", "x.csv"), ds); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestLoadFileAutoDetectsLayout(t *testing.T) {
	dir := t.TempDir()
	ds, err := Generate(Higgs, 64, 7)
	if err != nil {
		t.Fatal(err)
	}

	csvPath := filepath.Join(dir, "p.csv")
	if err := SaveCSVFile(csvPath, ds); err != nil {
		t.Fatal(err)
	}
	flatPath := filepath.Join(dir, "p.kcfl")
	if err := SaveFlatFile(flatPath, ds); err != nil {
		t.Fatal(err)
	}

	fromCSV, err := LoadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	fromFlat, err := LoadFile(flatPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCSV) != len(ds) || len(fromFlat) != len(ds) {
		t.Fatalf("sizes differ: csv %d flat %d want %d", len(fromCSV), len(fromFlat), len(ds))
	}
	for i := range ds {
		if !fromFlat[i].Equal(ds[i]) {
			t.Fatalf("flat point %d differs from the original", i)
		}
		if !fromCSV[i].Equal(fromFlat[i]) {
			// CSV stores full float64 precision ('g', -1), so the two loads
			// must agree exactly.
			t.Fatalf("point %d differs between CSV and flat loads", i)
		}
	}

	if _, err := LoadFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}

	// A corrupt flat file must surface the codec's typed error.
	bad := filepath.Join(dir, "bad.kcfl")
	if err := os.WriteFile(bad, []byte("KCFL1234"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); !errors.Is(err, metric.ErrFlatCorrupt) && !errors.Is(err, metric.ErrFlatUnsupportedVersion) {
		t.Errorf("corrupt flat file error = %v, want a flat codec error", err)
	}
}
