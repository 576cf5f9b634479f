package sketch

import (
	"bytes"
	"testing"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/streaming"
)

// fuzzSeedSketch builds a small valid sketch for the fuzz corpus.
func fuzzSeedSketch(points metric.Dataset, k, tau int) []byte {
	d, err := streaming.NewDoublingIn(metric.EuclideanSpace, tau)
	if err != nil {
		panic(err)
	}
	for _, p := range points {
		if err := d.Process(p); err != nil {
			panic(err)
		}
	}
	enc, err := Encode(FromState(KindKCenter, 1, k, 0, 0, d.State()))
	if err != nil {
		panic(err)
	}
	return enc
}

// FuzzSketchDecode proves the codec never panics on arbitrary bytes, and that
// every accepted input round-trips byte-identically (decode is the exact
// inverse of encode on its image).
func FuzzSketchDecode(f *testing.F) {
	data := clusteredData(200, 3, 4, 41)
	valid := fuzzSeedSketch(data, 4, 24)
	empty := fuzzSeedSketch(nil, 4, 24)
	buffering := fuzzSeedSketch(data[:8], 4, 24)

	f.Add([]byte(nil))
	f.Add([]byte(magic))
	f.Add(valid)
	f.Add(empty)
	f.Add(buffering)
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-5])
	f.Add(append(append([]byte(nil), valid...), 1, 2, 3))
	corrupt := append([]byte(nil), valid...)
	corrupt[7] = 250 // unknown distance
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		reenc, err := Encode(s)
		if err != nil {
			t.Fatalf("Encode rejected a sketch Decode accepted: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("round-trip not byte-identical: %d in, %d out", len(data), len(reenc))
		}
		if _, err := streaming.RestoreDoublingIn(nil, s.State()); err != nil {
			t.Fatalf("RestoreDoubling rejected a decoded sketch: %v", err)
		}
	})
}
