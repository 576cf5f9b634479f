package sketch

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"coresetclustering/internal/gmm"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/streaming"
)

// clusteredData generates well-separated Gaussian blobs, the low-doubling-
// dimension regime the paper's guarantees are stated for.
func clusteredData(n, dim, blobs int, seed int64) metric.Dataset {
	rng := rand.New(rand.NewSource(seed))
	centers := make(metric.Dataset, blobs)
	for b := range centers {
		c := make(metric.Point, dim)
		for j := range c {
			c[j] = rng.Float64() * 100
		}
		centers[b] = c
	}
	ds := make(metric.Dataset, n)
	for i := range ds {
		c := centers[rng.Intn(blobs)]
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = c[j] + rng.NormFloat64()
		}
		ds[i] = p
	}
	return ds
}

// doublingState runs points through a doubling coreset of budget tau — the
// state a streaming clusterer snapshots.
func doublingState(t *testing.T, sp metric.Space, points metric.Dataset, tau int) streaming.DoublingState {
	t.Helper()
	d, err := streaming.NewDoublingIn(sp, tau)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if err := d.Process(p); err != nil {
			t.Fatal(err)
		}
	}
	return d.State()
}

// streamSketch runs points through a plain k-center stream's state and
// snapshots it.
func streamSketch(t *testing.T, points metric.Dataset, k, tau int) *Sketch {
	t.Helper()
	return FromState(KindKCenter, 1, k, 0, 0, doublingState(t, metric.EuclideanSpace, points, tau))
}

func TestRoundTripGolden(t *testing.T) {
	data := clusteredData(3000, 4, 8, 7)
	cases := map[string]*Sketch{
		"kcenter-initialized": streamSketch(t, data, 8, 64),
		"kcenter-buffering":   streamSketch(t, data[:10], 8, 64),
		"kcenter-empty":       streamSketch(t, nil, 8, 64),
	}
	// An outliers sketch, for kind coverage.
	cases["outliers-initialized"] = FromState(KindOutliers, 2, 4, 10, 0.25, doublingState(t, metric.ManhattanSpace, data, 80))

	for name, sk := range cases {
		t.Run(name, func(t *testing.T) {
			enc, err := Encode(sk)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sk, dec) {
				t.Errorf("decoded sketch differs from original:\n got %+v\nwant %+v", dec, sk)
			}
			// The golden property: encode(decode(b)) == b, byte for byte.
			enc2, err := Encode(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Errorf("re-encoding is not byte-identical (%d vs %d bytes)", len(enc), len(enc2))
			}
		})
	}
}

// TestDecodeAllocatesOneBlock pins Decode to a fixed number of allocations
// whatever the point count: every coordinate lands in one count×dim block,
// rows back to back in coreset order.
func TestDecodeAllocatesOneBlock(t *testing.T) {
	allocs := func(n int) float64 {
		enc, err := Encode(streamSketch(t, clusteredData(n, 16, 8, 5), 8, 400))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(dec.Points); i++ {
			prev, p := dec.Points[i-1].P, dec.Points[i].P
			if unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), 8*len(prev)) != unsafe.Pointer(unsafe.SliceData(p)) {
				t.Fatalf("%d points: row %d does not follow row %d in one block", n, i, i-1)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Decode(enc); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(3000)
	if small != large || large > 3 {
		t.Errorf("Decode allocates %v times for 10 points and %v for 3000, want the same count, at most 3", small, large)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid, err := Encode(streamSketch(t, clusteredData(500, 3, 4, 3), 4, 32))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	putF64 := func(b []byte, off int, v float64) []byte {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[off+i] = byte(bits >> (56 - 8*i))
		}
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short-magic", []byte("KC"), ErrTruncated},
		{"bad-magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"short-header", valid[:20], ErrTruncated},
		{"truncated-payload", valid[:len(valid)-3], ErrTruncated},
		{"trailing-garbage", append(append([]byte(nil), valid...), 0xFF), ErrCorrupt},
		{"future-version", mutate(func(b []byte) []byte { b[5] = 99; return b }), ErrUnsupportedVersion},
		{"unknown-kind", mutate(func(b []byte) []byte { b[6] = 42; return b }), ErrCorrupt},
		{"unknown-distance", mutate(func(b []byte) []byte { b[7] = 200; return b }), ErrUnknownDistance},
		{"zero-k", mutate(func(b []byte) []byte { b[8], b[9], b[10], b[11] = 0, 0, 0, 0; return b }), ErrCorrupt},
		{"z-on-kcenter", mutate(func(b []byte) []byte { b[15] = 3; return b }), ErrCorrupt},
		{"nan-epshat", mutate(func(b []byte) []byte { return putF64(b, 16, math.NaN()) }), ErrCorrupt},
		{"tau-below-k", mutate(func(b []byte) []byte { b[24], b[25], b[26], b[27] = 0, 0, 0, 1; return b }), ErrCorrupt},
		{"inf-phi", mutate(func(b []byte) []byte { return putF64(b, 28, math.Inf(1)) }), ErrCorrupt},
		{"negative-phi", mutate(func(b []byte) []byte { return putF64(b, 28, -1) }), ErrCorrupt},
		{"negative-processed", mutate(func(b []byte) []byte { b[36] = 0xFF; return b }), ErrCorrupt},
		{"bad-init-flag", mutate(func(b []byte) []byte { b[44] = 2; return b }), ErrCorrupt},
		{"nan-coordinate", mutate(func(b []byte) []byte { return putF64(b, headerSize+8, math.NaN()) }), ErrCorrupt},
		{"zero-weight", mutate(func(b []byte) []byte {
			for i := 0; i < 8; i++ {
				b[headerSize+i] = 0
			}
			return b
		}), ErrCorrupt},
		{"weight-sum-mismatch", mutate(func(b []byte) []byte { b[43]++; return b }), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Decode(tc.data)
			if s != nil || err == nil {
				t.Fatalf("Decode accepted malformed input (err=%v)", err)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("Decode error = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsDimWithoutPoints(t *testing.T) {
	enc, err := Encode(streamSketch(t, nil, 4, 32))
	if err != nil {
		t.Fatal(err)
	}
	enc[48] = 3 // claim dim=3 with count=0
	if _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Decode error = %v, want ErrCorrupt", err)
	}
}

func TestEncodeRejectsInvalidSketch(t *testing.T) {
	if _, err := Encode(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Encode(nil) error = %v, want ErrCorrupt", err)
	}
	bad := streamSketch(t, clusteredData(200, 2, 3, 1), 3, 16)
	bad.DistID = 99
	if _, err := Encode(bad); !errors.Is(err, ErrUnknownDistance) {
		t.Errorf("Encode with unknown distance = %v, want ErrUnknownDistance", err)
	}
}

// The wire format stores k, z and tau as uint32. Values beyond int32 range
// must be rejected up front, not silently truncated into bytes that either
// fail to decode or — worse — decode to a different k.
func TestEncodeRejectsOutOfRangeParams(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("parameters cannot exceed int32 range on 32-bit platforms")
	}
	big := math.MaxInt32
	big++
	for _, tc := range []struct {
		name   string
		modify func(s *Sketch)
	}{
		{"k", func(s *Sketch) { s.K = big }},
		{"z", func(s *Sketch) { s.Kind = KindOutliers; s.Z = big; s.Tau = big }},
		{"tau", func(s *Sketch) { s.Tau = big }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := streamSketch(t, clusteredData(200, 2, 3, 1), 3, 16)
			tc.modify(s)
			if _, err := Encode(s); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Encode error = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestMergeIncompatible(t *testing.T) {
	data := clusteredData(800, 3, 4, 5)
	a := streamSketch(t, data[:400], 4, 32)
	cases := []struct {
		name   string
		modify func(s *Sketch)
	}{
		{"kind", func(s *Sketch) { s.Kind = KindOutliers }},
		{"distance", func(s *Sketch) { s.DistID = 2 }},
		{"k", func(s *Sketch) { s.K = 3 }},
		{"budget", func(s *Sketch) { s.Tau = 33 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := streamSketch(t, data[400:], 4, 32)
			tc.modify(b)
			if _, err := Merge(a, b); !errors.Is(err, ErrIncompatible) {
				t.Errorf("Merge error = %v, want ErrIncompatible", err)
			}
		})
	}
	t.Run("dimension", func(t *testing.T) {
		b := streamSketch(t, clusteredData(400, 5, 4, 6), 4, 32)
		if _, err := Merge(a, b); !errors.Is(err, ErrIncompatible) {
			t.Errorf("Merge error = %v, want ErrIncompatible", err)
		}
	})
	t.Run("empty-args", func(t *testing.T) {
		if _, err := Merge(); !errors.Is(err, ErrIncompatible) {
			t.Errorf("Merge() error = %v, want ErrIncompatible", err)
		}
	})
	t.Run("nil-sketch", func(t *testing.T) {
		if _, err := Merge(a, nil); !errors.Is(err, ErrIncompatible) {
			t.Errorf("Merge(a, nil) error = %v, want ErrIncompatible", err)
		}
	})
}

func TestMergeSingleIsIdentity(t *testing.T) {
	sk := streamSketch(t, clusteredData(1000, 3, 5, 9), 5, 40)
	merged, err := Merge(sk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sk, merged) {
		t.Errorf("Merge of a single sketch is not an identity:\n got %+v\nwant %+v", merged, sk)
	}
}

func TestMergeAccounting(t *testing.T) {
	data := clusteredData(4000, 4, 10, 11)
	shards := make([]*Sketch, 4)
	for i := range shards {
		shards[i] = streamSketch(t, data[i*1000:(i+1)*1000], 8, 48)
	}
	merged, err := Merge(shards...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Processed != int64(len(data)) {
		t.Errorf("merged.Processed = %d, want %d", merged.Processed, len(data))
	}
	if len(merged.Points) > merged.Tau {
		t.Errorf("merged coreset has %d points, budget %d", len(merged.Points), merged.Tau)
	}
	if got := merged.Points.TotalWeight(); got != int64(len(data)) {
		t.Errorf("merged weights sum to %d, want %d", got, len(data))
	}
	// The merged sketch must itself be encodable and re-mergeable.
	enc, err := Encode(merged)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc); err != nil {
		t.Fatal(err)
	}
}

func TestMergeBufferingShards(t *testing.T) {
	// Every shard is still below tau+1 points: the merge must replay the raw
	// points, matching the semantics of one stream that saw them in order.
	data := clusteredData(60, 3, 3, 13)
	a := streamSketch(t, data[:20], 4, 64)
	b := streamSketch(t, data[20:40], 4, 64)
	c := streamSketch(t, data[40:], 4, 64)
	merged, err := Merge(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	single := streamSketch(t, data, 4, 64)
	if !reflect.DeepEqual(single, merged) {
		t.Errorf("merging buffering shards does not match the single stream:\n got %+v\nwant %+v", merged, single)
	}
}

func TestMergeDeterministicByArgumentOrder(t *testing.T) {
	data := clusteredData(3000, 4, 8, 17)
	a := streamSketch(t, data[:1500], 6, 36)
	b := streamSketch(t, data[1500:], 6, 36)
	m1, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Encode(m1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Encode(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e2) {
		t.Error("repeated Merge with identical arguments is not byte-identical")
	}
}

// TestMergeQualityProperty is the composability property test: sketches
// built independently on shards, merged, and reduced to k centers must stay
// within the paper's (2+eps)*Gonzalez bound on the whole input.
func TestMergeQualityProperty(t *testing.T) {
	const (
		n, dim, blobs = 8000, 4, 10
		k             = 10
		shards        = 4
		tau           = 16 * k
	)
	data := clusteredData(n, dim, blobs, 23)

	parts := make([]*Sketch, shards)
	for i := range parts {
		var shard metric.Dataset
		for j := i; j < len(data); j += shards {
			shard = append(shard, data[j])
		}
		parts[i] = streamSketch(t, shard, k, tau)
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := streaming.RestoreDoublingIn(metric.EuclideanSpace, merged.State())
	if err != nil {
		t.Fatal(err)
	}
	extracted, err := gmm.Runner{Space: metric.EuclideanSpace}.Run(d.Coreset().Points(), k, 0)
	if err != nil {
		t.Fatal(err)
	}
	mergedRadius := metric.Radius(metric.Euclidean, data, extracted.Centers)

	base, err := gmm.Runner{Space: metric.EuclideanSpace}.Run(data, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Gonzalez is a 2-approximation, the merged streaming pipeline 2+eps; a
	// generous eps = 1 absorbs the sharding and budget slack.
	if bound := (2 + 1.0) * base.Radius; mergedRadius > bound {
		t.Errorf("merged radius %v exceeds (2+eps) bound %v (Gonzalez %v)", mergedRadius, bound, base.Radius)
	}
}

// TestDistanceRegistry pins the wire table as seen from bare distance
// functions: an adapter over a built-in function serializes as that
// built-in, nil is Euclidean, and a custom function, id 0 and an unknown
// name are all ErrUnknownDistance.
func TestDistanceRegistry(t *testing.T) {
	for _, name := range metric.SpaceNames() {
		sp, id, err := SpaceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		adapter := metric.SpaceFromDistance("adapter", sp.Dist())
		if gotID, err := SpaceID(adapter); err != nil || gotID != id {
			t.Errorf("SpaceID(adapter over %s) = (%d,%v), want (%d,nil)", name, gotID, err, id)
		}
	}
	if id, err := SpaceID(nil); err != nil || id != 1 {
		t.Errorf("SpaceID(nil) = %d, %v; want 1 (euclidean)", id, err)
	}
	custom := metric.SpaceFromDistance("custom", func(a, b metric.Point) float64 { return 0 })
	if _, err := SpaceID(custom); !errors.Is(err, ErrUnknownDistance) {
		t.Errorf("SpaceID(custom) = %v, want ErrUnknownDistance", err)
	}
	for _, id := range []uint8{0, 200} {
		if _, err := SpaceByID(id); !errors.Is(err, ErrUnknownDistance) {
			t.Errorf("SpaceByID(%d) = %v, want ErrUnknownDistance", id, err)
		}
	}
	if _, _, err := SpaceByName("no-such"); !errors.Is(err, ErrUnknownDistance) {
		t.Errorf("SpaceByName = %v, want ErrUnknownDistance", err)
	}
}

// TestSpaceRegistry pins the wire table against metric's named spaces: every
// built-in space has a wire id and round-trips name -> id -> space, and an
// adapter that merely names itself after a built-in (but wraps a different
// function) is rejected instead of serializing under the wrong metric.
func TestSpaceRegistry(t *testing.T) {
	for _, name := range metric.SpaceNames() {
		sp, id, err := SpaceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		back, err := SpaceByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if back != metric.SpaceByName(name) || DistanceName(id) != name {
			t.Errorf("id %d resolves to %q, named %q; want the built-in %q", id, back.Name(), DistanceName(id), name)
		}
		if gotID, err := SpaceID(sp); err != nil || gotID != id {
			t.Errorf("SpaceID(%s) = (%d,%v), want (%d,nil)", name, gotID, err, id)
		}
	}
	impostor := metric.SpaceFromDistance("euclidean", func(a, b metric.Point) float64 {
		return metric.Manhattan(a, b)
	})
	if _, err := SpaceID(impostor); !errors.Is(err, ErrUnknownDistance) {
		t.Errorf("impostor space error = %v, want ErrUnknownDistance", err)
	}
}
