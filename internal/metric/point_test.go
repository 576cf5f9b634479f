package metric

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestPointDim(t *testing.T) {
	tests := []struct {
		name string
		p    Point
		want int
	}{
		{"empty", Point{}, 0},
		{"one", Point{1}, 1},
		{"three", Point{1, 2, 3}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dim(); got != tt.want {
				t.Errorf("Dim() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestPointClone(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatalf("clone not equal: %v vs %v", p, q)
	}
	q[0] = 99
	if p[0] == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestPointEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want bool
	}{
		{"equal", Point{1, 2}, Point{1, 2}, true},
		{"different value", Point{1, 2}, Point{1, 3}, false},
		{"different dim", Point{1, 2}, Point{1, 2, 3}, false},
		{"both empty", Point{}, Point{}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPointValidate(t *testing.T) {
	if err := (Point{1, 2, 3}).Validate(); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
	if err := (Point{1, math.NaN()}).Validate(); err == nil {
		t.Error("NaN accepted")
	}
	if err := (Point{math.Inf(1)}).Validate(); err == nil {
		t.Error("+Inf accepted")
	}
	if err := (Point{math.Inf(-1)}).Validate(); err == nil {
		t.Error("-Inf accepted")
	}
}

func TestPointString(t *testing.T) {
	s := Point{1, 2.5}.String()
	if !strings.Contains(s, "1") || !strings.Contains(s, "2.5") {
		t.Errorf("String() = %q, want coordinates included", s)
	}
}

func TestPointArithmetic(t *testing.T) {
	a := Point{1, 2}
	b := Point{3, 5}
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(Point{4, 7}) {
		t.Errorf("Add = %v, want (4,7)", sum)
	}
	diff, err := b.Sub(a)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Equal(Point{2, 3}) {
		t.Errorf("Sub = %v, want (2,3)", diff)
	}
	if _, err := a.Add(Point{1}); err == nil {
		t.Error("Add with mismatched dims should fail")
	}
	if _, err := a.Sub(Point{1}); err == nil {
		t.Error("Sub with mismatched dims should fail")
	}
	if got := a.Scale(2); !got.Equal(Point{2, 4}) {
		t.Errorf("Scale = %v, want (2,4)", got)
	}
}

func TestDatasetValidate(t *testing.T) {
	tests := []struct {
		name    string
		ds      Dataset
		wantErr bool
	}{
		{"ok", Dataset{{1, 2}, {3, 4}}, false},
		{"empty", Dataset{}, true},
		{"mixed dims", Dataset{{1, 2}, {3}}, true},
		{"nan", Dataset{{1, math.NaN()}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.ds.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestDatasetClone(t *testing.T) {
	ds := Dataset{{1, 2}, {3, 4}}
	cp := ds.Clone()
	cp[0][0] = 42
	if ds[0][0] == 42 {
		t.Fatal("Clone shares point storage")
	}
	// One block, rows in order, each row's capacity ending at its own end.
	ds = Dataset{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	cp = ds.Clone()
	if !reflect.DeepEqual(cp, ds) {
		t.Fatalf("Clone = %v, want %v", cp, ds)
	}
	for i := 1; i < len(cp); i++ {
		if unsafe.Add(unsafe.Pointer(&cp[i-1][0]), 3*8) != unsafe.Pointer(&cp[i][0]) {
			t.Fatalf("row %d does not follow row %d in one block", i, i-1)
		}
		if cap(cp[i-1]) != 3 {
			t.Fatalf("row %d has capacity %d, want 3", i-1, cap(cp[i-1]))
		}
	}
	_ = append(cp[0], 42)
	if cp[1][0] != 4 {
		t.Fatal("appending to a cloned row wrote its neighbour")
	}
}

func TestDatasetBoundingBox(t *testing.T) {
	ds := Dataset{{1, 5}, {-2, 7}, {3, 6}}
	lo, hi, err := ds.BoundingBox()
	if err != nil {
		t.Fatal(err)
	}
	if !lo.Equal(Point{-2, 5}) {
		t.Errorf("lo = %v, want (-2,5)", lo)
	}
	if !hi.Equal(Point{3, 7}) {
		t.Errorf("hi = %v, want (3,7)", hi)
	}
	if _, _, err := (Dataset{}).BoundingBox(); err == nil {
		t.Error("bounding box of empty dataset should fail")
	}
	if _, _, err := (Dataset{{1}, {1, 2}}).BoundingBox(); err == nil {
		t.Error("bounding box of mixed-dimension dataset should fail")
	}
}

func TestDatasetDim(t *testing.T) {
	if got := (Dataset{}).Dim(); got != 0 {
		t.Errorf("empty dataset Dim = %d, want 0", got)
	}
	if got := (Dataset{{1, 2, 3}}).Dim(); got != 3 {
		t.Errorf("Dim = %d, want 3", got)
	}
}
