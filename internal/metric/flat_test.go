package metric

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"
)

func testFlat(t *testing.T, n, dim int, seed int64) *Flat {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f, err := NewFlat(dim, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := f.Append(randPoint(rng, dim)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestFlatBasics(t *testing.T) {
	f := testFlat(t, 10, 3, 1)
	if f.Len() != 10 || f.Dim() != 3 {
		t.Fatalf("Len/Dim = %d/%d, want 10/3", f.Len(), f.Dim())
	}
	if err := f.Append(Point{1, 2}); !errors.Is(err, ErrFlatDim) {
		t.Fatalf("dim-mismatch append error = %v, want ErrFlatDim", err)
	}
	ds := f.Dataset()
	if len(ds) != 10 {
		t.Fatalf("Dataset len = %d", len(ds))
	}
	// Views share storage with the buffer: mutating a point shows through.
	ds[4][2] = 123.5
	if f.at(4)[2] != 123.5 {
		t.Fatal("Dataset points are not views into the flat buffer")
	}
	if &f.Coords()[4*3+2] != &ds[4][2] {
		t.Fatal("coordinate backing storage is not shared")
	}
}

func TestFlatFromDatasetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := make(Dataset, 31)
	for i := range ds {
		ds[i] = randPoint(rng, 7)
	}
	f, err := FlatFromDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Dataset()
	for i := range ds {
		if !ds[i].Equal(got[i]) {
			t.Fatalf("point %d differs after flat round trip", i)
		}
	}
	if _, err := FlatFromDataset(nil); err == nil {
		t.Error("FlatFromDataset(nil) should fail")
	}
}

func TestFlatCodecRoundTrip(t *testing.T) {
	f := testFlat(t, 100, 16, 3)
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	first := append([]byte(nil), buf.Bytes()...)
	got, err := ReadFlat(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != f.Len() || got.Dim() != f.Dim() {
		t.Fatalf("decoded shape %dx%d, want %dx%d", got.Len(), got.Dim(), f.Len(), f.Dim())
	}
	for i := range f.Coords() {
		if got.Coords()[i] != f.Coords()[i] {
			t.Fatalf("coordinate %d differs after codec round trip", i)
		}
	}
	// Encode(decode(b)) must be byte-identical.
	var buf2 bytes.Buffer
	if _, err := got.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("re-encoded flat file is not byte-identical")
	}
}

func TestFlatCodecRejectsMalformedInput(t *testing.T) {
	f := testFlat(t, 5, 2, 4)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrFlatCorrupt},
		{"bad magic", append([]byte("NOPE"), good[4:]...), ErrFlatBadMagic},
		{"bad version", mutate(good, 5, 9), ErrFlatUnsupportedVersion},
		{"reserved set", mutate(good, 7, 1), ErrFlatCorrupt},
		{"zero dim", func() []byte {
			b := append([]byte(nil), good...)
			b[8], b[9], b[10], b[11] = 0, 0, 0, 0
			return b
		}(), ErrFlatCorrupt},
		{"truncated payload", good[:len(good)-3], ErrFlatCorrupt},
		{"trailing garbage", append(append([]byte(nil), good...), 0), ErrFlatCorrupt},
		{"nan coordinate", func() []byte {
			b := append([]byte(nil), good...)
			nan := math.Float64bits(math.NaN())
			for i := 0; i < 8; i++ {
				b[20+i] = byte(nan >> (56 - 8*i))
			}
			return b
		}(), ErrFlatCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadFlat(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

func mutate(b []byte, pos int, val byte) []byte {
	out := append([]byte(nil), b...)
	out[pos] = val
	return out
}

func TestFlatFileRoundTrip(t *testing.T) {
	f := testFlat(t, 40, 4, 6)
	path := t.TempDir() + "/points.kcfl"
	if err := SaveFlatFile(path, f); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	got, err := ReadFlat(file)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Coords() {
		if got.Coords()[i] != f.Coords()[i] {
			t.Fatalf("coordinate %d differs after file round trip", i)
		}
	}
}

// TestReadFlatHugeCountHeader: crafted headers declaring absurd point counts
// must fail with a typed error quickly, never preallocate gigabytes — both
// beyond the hard size cap and inside it (where the bounded preallocation
// plus the immediate payload EOF is what protects the process).
func TestReadFlatHugeCountHeader(t *testing.T) {
	mk := func(count uint64) []byte {
		var hdr [20]byte
		copy(hdr[0:4], FlatMagic)
		hdr[5] = 1  // version
		hdr[11] = 8 // dim = 8
		for i := 0; i < 8; i++ {
			hdr[12+i] = byte(count >> (56 - 8*i))
		}
		return hdr[:]
	}
	// 2^46 points: beyond the size cap.
	if _, err := ReadFlat(bytes.NewReader(mk(1 << 46))); !errors.Is(err, ErrFlatCorrupt) {
		t.Fatalf("over-cap header error = %v, want ErrFlatCorrupt", err)
	}
	// 2^24 points of dim 8 (1 GiB of coordinates): inside the cap, but the
	// empty payload must fail after only the bounded preallocation.
	if _, err := ReadFlat(bytes.NewReader(mk(1 << 24))); !errors.Is(err, ErrFlatCorrupt) {
		t.Fatalf("in-cap truncated header error = %v, want ErrFlatCorrupt", err)
	}
}

// TestFlatFrameRoundTrip: AppendFrame must be byte-identical to WriteTo, and
// DecodeFlatFrame must round-trip it and hand back the untouched remainder.
func TestFlatFrameRoundTrip(t *testing.T) {
	f := testFlat(t, 100, 16, 3)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	frame := f.AppendFrame(nil)
	if !bytes.Equal(frame, buf.Bytes()) {
		t.Fatal("AppendFrame differs from WriteTo")
	}
	if want := flatHeaderSize + 8*100*16; len(frame) != want {
		t.Fatalf("frame is %d bytes, want %d", len(frame), want)
	}
	trailer := []byte("trailer bytes")
	got, rest, err := DecodeFlatFrame(append(frame, trailer...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, trailer) {
		t.Fatalf("rest = %q, want %q", rest, trailer)
	}
	if got.Len() != f.Len() || got.Dim() != f.Dim() {
		t.Fatalf("decoded shape %dx%d, want %dx%d", got.Len(), got.Dim(), f.Len(), f.Dim())
	}
	for i := range f.Coords() {
		if got.Coords()[i] != f.Coords()[i] {
			t.Fatalf("coordinate %d differs after frame round trip", i)
		}
	}
}

// TestDecodeFlatFrameRejectsMalformedInput mirrors the ReadFlat rejection
// table (minus trailing-data, which DecodeFlatFrame hands to the caller).
func TestDecodeFlatFrameRejectsMalformedInput(t *testing.T) {
	good := testFlat(t, 5, 2, 4).AppendFrame(nil)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrFlatCorrupt},
		{"short header", good[:19], ErrFlatCorrupt},
		{"bad magic", append([]byte("NOPE"), good[4:]...), ErrFlatBadMagic},
		{"bad version", mutate(good, 5, 9), ErrFlatUnsupportedVersion},
		{"reserved set", mutate(good, 7, 1), ErrFlatCorrupt},
		{"zero dim", func() []byte {
			b := append([]byte(nil), good...)
			b[8], b[9], b[10], b[11] = 0, 0, 0, 0
			return b
		}(), ErrFlatCorrupt},
		{"truncated payload", good[:len(good)-3], ErrFlatCorrupt},
		{"count beyond payload", mutate(good, 19, 200), ErrFlatCorrupt},
		{"nan coordinate", func() []byte {
			b := append([]byte(nil), good...)
			nan := math.Float64bits(math.NaN())
			for i := 0; i < 8; i++ {
				b[20+i] = byte(nan >> (56 - 8*i))
			}
			return b
		}(), ErrFlatCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeFlatFrame(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecodeFlatFrameHugeCountHeader: a crafted count must be rejected before
// any allocation — over the hard cap and merely over the payload length.
func TestDecodeFlatFrameHugeCountHeader(t *testing.T) {
	mk := func(count uint64) []byte {
		var hdr [20]byte
		copy(hdr[0:4], FlatMagic)
		hdr[5] = 1  // version
		hdr[11] = 8 // dim = 8
		for i := 0; i < 8; i++ {
			hdr[12+i] = byte(count >> (56 - 8*i))
		}
		return hdr[:]
	}
	for _, count := range []uint64{1 << 62, 1 << 46, 1 << 24, 1} {
		if _, _, err := DecodeFlatFrame(mk(count)); !errors.Is(err, ErrFlatCorrupt) {
			t.Fatalf("count %d: error = %v, want ErrFlatCorrupt", count, err)
		}
	}
}

// TestDecodeFlatFrameAllocs pins the zero-per-point allocation property the
// binary ingest path is built on: one coordinate-buffer allocation plus the
// Flat header, regardless of point count.
func TestDecodeFlatFrameAllocs(t *testing.T) {
	frame := testFlat(t, 4096, 8, 9).AppendFrame(nil)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := DecodeFlatFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("DecodeFlatFrame of 4096 points did %v allocations, want <= 2", allocs)
	}
}
