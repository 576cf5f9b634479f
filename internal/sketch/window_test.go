package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"coresetclustering/internal/streaming"
)

// buildWindowSketch assembles a small, structurally valid window sketch by
// running real doubling processors over slices of a clustered stream. base
// and chi shape the bucket list; the last bucket is a partial level-0 one.
func buildWindowSketch(t testing.TB, kind Kind, k, z int, epsHat float64, tau int) *WindowSketch {
	data := clusteredData(70, 3, 4, 77)
	const base = 16
	ws := &WindowSketch{
		Kind:     kind,
		DistID:   1,
		K:        k,
		Z:        z,
		EpsHat:   epsHat,
		Tau:      tau,
		MaxCount: 64,
		Chi:      2,
		Base:     base,
		Seq:      70,
		LastTS:   90,
	}
	// Buckets: a sealed level-1 (32 points), a sealed level-0 (16), and an
	// open level-0 bucket (6 points); the oldest 16 points are "evicted".
	bounds := []struct {
		level            int
		startSeq, endSeq int64
		startTS, endTS   int64
	}{
		{1, 16, 48, 10, 40},
		{0, 48, 64, 40, 70},
		{0, 64, 70, 70, 90},
	}
	for _, b := range bounds {
		d, err := streaming.NewDoublingIn(nil, tau)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range data[b.startSeq:b.endSeq] {
			if err := d.Process(p); err != nil {
				t.Fatal(err)
			}
		}
		ws.Buckets = append(ws.Buckets, WindowBucket{
			Level:    b.level,
			StartSeq: b.startSeq,
			EndSeq:   b.endSeq,
			StartTS:  b.startTS,
			EndTS:    b.endTS,
			Payload:  FromState(kind, 1, k, z, epsHat, d.State()),
		})
	}
	return ws
}

func TestWindowRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		ws   *WindowSketch
	}{
		{"kcenter", buildWindowSketch(t, KindKCenter, 4, 0, 0, 24)},
		{"outliers", buildWindowSketch(t, KindOutliers, 3, 5, 0.25, 24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := EncodeWindow(tc.ws)
			if err != nil {
				t.Fatal(err)
			}
			if !IsWindowSketch(enc) {
				t.Error("encoded window sketch not recognised by IsWindowSketch")
			}
			dec, err := DecodeWindow(enc)
			if err != nil {
				t.Fatal(err)
			}
			re, err := EncodeWindow(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, re) {
				t.Error("encode(decode(b)) != b")
			}
			if dec.Seq != tc.ws.Seq || dec.MaxCount != tc.ws.MaxCount || len(dec.Buckets) != len(tc.ws.Buckets) {
				t.Errorf("decoded header mismatch: %+v", dec)
			}
		})
	}
}

func TestWindowEmptyBuckets(t *testing.T) {
	// A fully evicted window (seq > 0, no buckets) is a legal state.
	ws := &WindowSketch{Kind: KindKCenter, DistID: 1, K: 3, Tau: 12, MaxAge: 50, Chi: 4, Base: 3, Seq: 400, LastTS: 900}
	enc, err := EncodeWindow(ws)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeWindow(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Buckets) != 0 || dec.Seq != 400 {
		t.Errorf("decoded: %+v", dec)
	}
}

// TestWindowDecodeRejects drives every class of malformed input through
// DecodeWindow and checks the typed error.
func TestWindowDecodeRejects(t *testing.T) {
	valid, err := EncodeWindow(buildWindowSketch(t, KindOutliers, 3, 5, 0.25, 24))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(mut func(b []byte) []byte) []byte {
		return mut(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"nil", nil, ErrTruncated},
		{"not-a-sketch", []byte("hello, definitely not a sketch"), ErrBadMagic},
		{"kcsk-magic", mutate(func(b []byte) []byte { copy(b[0:4], magic); return b }), ErrBadMagic},
		{"short-header", valid[:40], ErrTruncated},
		{"bad-version", mutate(func(b []byte) []byte { binary.BigEndian.PutUint16(b[4:6], 9); return b }), ErrUnsupportedVersion},
		{"bad-kind", mutate(func(b []byte) []byte { b[6] = 9; return b }), ErrCorrupt},
		{"bad-distance", mutate(func(b []byte) []byte { b[7] = 200; return b }), ErrUnknownDistance},
		{"zero-k", mutate(func(b []byte) []byte { binary.BigEndian.PutUint32(b[8:12], 0); return b }), ErrCorrupt},
		{"no-bound", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[28:36], 0) // maxCount = 0, maxAge already 0
			return b
		}), ErrCorrupt},
		{"zero-chi", mutate(func(b []byte) []byte { binary.BigEndian.PutUint32(b[44:48], 0); return b }), ErrCorrupt},
		{"zero-base", mutate(func(b []byte) []byte { binary.BigEndian.PutUint32(b[48:52], 0); return b }), ErrCorrupt},
		{"truncated-bucket", valid[:len(valid)-7], ErrTruncated},
		{"trailing-bytes", append(append([]byte(nil), valid...), 0xAB), ErrCorrupt},
		{"huge-bucket-count", mutate(func(b []byte) []byte { binary.BigEndian.PutUint32(b[68:72], 1<<30); return b }), ErrTruncated},
		{"bucket-level-overflow", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[windowHeaderSize:windowHeaderSize+4], 63)
			return b
		}), ErrCorrupt},
		{"seq-behind-buckets", mutate(func(b []byte) []byte { binary.BigEndian.PutUint64(b[52:60], 5); return b }), ErrCorrupt},
		{"ts-behind-buckets", mutate(func(b []byte) []byte { binary.BigEndian.PutUint64(b[60:68], 1); return b }), ErrCorrupt},
		{"corrupt-payload", mutate(func(b []byte) []byte {
			// Flip the nested KCSK magic of the first bucket payload.
			b[windowHeaderSize+windowBucketHeader] ^= 0xFF
			return b
		}), ErrBadMagic},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeWindow(tc.data)
			if err == nil {
				t.Fatal("accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestWindowValidateStructure covers the exponential-histogram structure
// checks that operate on the in-memory form.
func TestWindowValidateStructure(t *testing.T) {
	base := func() *WindowSketch { return buildWindowSketch(t, KindKCenter, 4, 0, 0, 24) }

	breakIt := []struct {
		name string
		mut  func(ws *WindowSketch)
	}{
		{"gap-in-seq", func(ws *WindowSketch) { ws.Buckets[1].StartSeq += 1 }},
		{"ts-out-of-order", func(ws *WindowSketch) { ws.Buckets[1].StartTS = ws.Buckets[0].EndTS - 5 }},
		{"level-increases", func(ws *WindowSketch) {
			// Swap levels so a sealed level-1 bucket follows a level-0 one.
			ws.Buckets[0].Level = 0
		}},
		{"partial-not-last", func(ws *WindowSketch) {
			// Shrink the middle bucket below its seal size.
			ws.Buckets[1].EndSeq -= 2
			ws.Buckets[2].StartSeq -= 2
		}},
		{"params-disagree", func(ws *WindowSketch) { ws.Buckets[0].Payload.K = 9 }},
		{"nil-payload", func(ws *WindowSketch) { ws.Buckets[0].Payload = nil }},
		{"too-many-per-level", func(ws *WindowSketch) {
			// Two sealed level-0 buckets under chi=1.
			ws.Chi = 1
			b := ws.Buckets[1] // sealed level-0, 16 points
			dup := b
			dup.StartSeq, dup.EndSeq = b.EndSeq, b.EndSeq+16
			dup.StartTS, dup.EndTS = b.EndTS, b.EndTS
			ws.Buckets = []WindowBucket{ws.Buckets[0], b, dup}
			ws.Seq = dup.EndSeq
		}},
	}
	for _, tc := range breakIt {
		t.Run(tc.name, func(t *testing.T) {
			ws := base()
			tc.mut(ws)
			if _, err := EncodeWindow(ws); err == nil {
				t.Error("EncodeWindow accepted a structurally invalid window sketch")
			}
		})
	}

	// Sanity: the unmutated sketch is valid.
	if _, err := EncodeWindow(base()); err != nil {
		t.Fatal(err)
	}
}

// FuzzWindowDecode proves the window codec never panics on arbitrary bytes
// and that every accepted input round-trips byte-identically.
func FuzzWindowDecode(f *testing.F) {
	valid, err := EncodeWindow(buildWindowSketch(f, KindKCenter, 4, 0, 0, 24))
	if err != nil {
		f.Fatal(err)
	}
	outl, err := EncodeWindow(buildWindowSketch(f, KindOutliers, 3, 5, 0.25, 24))
	if err != nil {
		f.Fatal(err)
	}
	empty, err := EncodeWindow(&WindowSketch{Kind: KindKCenter, DistID: 1, K: 3, Tau: 12, MaxCount: 9, Chi: 1, Base: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add([]byte(windowMagic))
	f.Add(valid)
	f.Add(outl)
	f.Add(empty)
	f.Add(valid[:windowHeaderSize])
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte(nil), valid...), 7, 7))

	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := DecodeWindow(data)
		if err != nil {
			return
		}
		re, err := EncodeWindow(ws)
		if err != nil {
			t.Fatalf("EncodeWindow rejected a sketch DecodeWindow accepted: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round-trip not byte-identical: %d in, %d out", len(data), len(re))
		}
		for i, b := range ws.Buckets {
			if _, err := streaming.RestoreDoublingIn(nil, b.Payload.State()); err != nil {
				t.Fatalf("RestoreDoubling rejected decoded bucket %d: %v", i, err)
			}
		}
	})
}
