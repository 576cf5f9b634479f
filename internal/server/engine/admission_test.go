package engine

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/sketch"
	"coresetclustering/internal/streaming"
	"coresetclustering/internal/window"
)

// reproBatch is the overflow repro in the flavours' three dimensions: finite
// coordinates whose squared differences overflow, so that every Euclidean
// distance between them would be +Inf.
func reproBatch() metric.Dataset {
	b := make(metric.Dataset, 10)
	for i := range b {
		b[i] = metric.Point{float64(i+1) * 1e200, 0, 0}
	}
	return b
}

// TestOverboundBatchRefusedBeforeJournal: a durable engine answers the
// repro batch invalid_point without journaling it, changes nothing, keeps
// ingesting, and reopens byte-identically.
func TestOverboundBatchRefusedBeforeJournal(t *testing.T) {
	for _, f := range flavours {
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			dir := t.TempDir()
			e, store := openDurable(t, dir)
			b1 := randomBatch(rng, 40, 3)
			f.start(t, e, "s", b1, f.stamps(len(b1), 0))
			st, _ := e.Lookup("s")
			seq := st.Log().LastSeq()
			before := snapshotOf(t, e, "s", "before")

			repro := reproBatch()
			if _, err := e.Ingest(context.Background(), "s", repro, f.stamps(len(repro), 50), -1, f.params); CodeOf(err) != CodeInvalidPoint {
				t.Fatalf("repro batch: code %q (%v), want %q", CodeOf(err), err, CodeInvalidPoint)
			}
			if got := st.Log().LastSeq(); got != seq {
				t.Fatalf("the refused batch was journaled: last sequence %d -> %d", seq, got)
			}
			if after := snapshotOf(t, e, "s", "after"); !bytes.Equal(after.snap, before.snap) {
				t.Fatal("the refused batch changed the stream")
			}

			b2 := randomBatch(rng, 40, 3)
			mustIngest(t, e, "s", b2, f.stamps(len(b2), 100), f.params)
			want := snapshotOf(t, e, "s", "after the next batch")
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			e2, store2 := openDurable(t, dir)
			defer store2.Close()
			if failed := e2.FailedStreams(); len(failed) != 0 {
				t.Fatalf("recovery set streams aside: %v", failed)
			}
			if got := snapshotOf(t, e2, "s", "reopened"); !bytes.Equal(got.snap, want.snap) {
				t.Error("reopened stream is not byte-identical")
			}
		})
	}
}

// TestOverboundWALRecordSetAsideAtBoot: a journal that holds a batch no
// stream admits — written straight through persist, as an older daemon
// could have — is set aside at boot (its bytes kept whole), without hanging,
// while the store's other streams recover and the name stays usable.
func TestOverboundWALRecordSetAsideAtBoot(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	meta := persist.Meta{K: 3, Budget: 24, Space: "euclidean"}
	for name, batch := range map[string]metric.Dataset{"bad": reproBatch(), "good": randomBatch(rng, 40, 3)} {
		lg, err := store.Create(name, meta)
		if err != nil {
			t.Fatal(err)
		}
		p, err := lg.BeginBatch(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	badDir := filepath.Join(dir, base64.RawURLEncoding.EncodeToString([]byte("bad")))
	wal, err := os.ReadFile(filepath.Join(badDir, "wal"))
	if err != nil {
		t.Fatal(err)
	}

	e, store2 := openDurable(t, dir)
	defer store2.Close()
	if _, ok := e.FailedStreams()["bad"]; !ok {
		t.Fatalf("failed streams %v, want bad set aside", e.FailedStreams())
	}
	if kept, err := os.ReadFile(filepath.Join(badDir+".failed", "wal")); err != nil || !bytes.Equal(kept, wal) {
		t.Fatalf("the set-aside journal is not the journal written (err %v)", err)
	}
	if stats, err := e.Stats("good"); err != nil || stats.Observed != 40 {
		t.Fatalf("good stream after boot: %+v, %v", stats, err)
	}
	mustIngest(t, e, "bad", randomBatch(rng, 5, 3), nil, CreateParams{K: 3, Budget: 24})
}

// TestOverboundSketchIsBadSketch: a KCSK or KCWN sketch carrying a
// coordinate beyond the bound decodes to ErrCorrupt and restores as
// bad_sketch; the same bytes with an in-bound value there restore fine.
func TestOverboundSketchIsBadSketch(t *testing.T) {
	for _, f := range []flavour{flavours[0], flavours[2]} {
		t.Run(f.name, func(t *testing.T) {
			e := New(Config{})
			b := randomBatch(rand.New(rand.NewSource(43)), 60, 3)
			f.start(t, e, "s", b, f.stamps(len(b), 0))
			snap := snapshotOf(t, e, "s", "original").snap
			// The first coordinate of the first weighted point: after the
			// 53-byte KCSK header and its 8-byte weight, inside the first
			// bucket (72-byte KCWN header, 40-byte bucket header) of a window.
			off := 53 + 8
			decode := func(b []byte) error { _, err := sketch.Decode(b); return err }
			if sketch.IsWindowSketch(snap) {
				off += 72 + 40
				decode = func(b []byte) error { _, err := sketch.DecodeWindow(b); return err }
			}
			patched := func(v float64) []byte {
				b := bytes.Clone(snap)
				binary.BigEndian.PutUint64(b[off:], math.Float64bits(v))
				return b
			}
			if _, err := e.Restore("fine", patched(7)); err != nil {
				t.Fatalf("in-bound patch: %v (the offset is not a coordinate)", err)
			}
			for _, v := range []float64{1e200, -math.Nextafter(0x1p500, math.Inf(1))} {
				if err := decode(patched(v)); !errors.Is(err, sketch.ErrCorrupt) {
					t.Errorf("coordinate %v: decode %v, want ErrCorrupt", v, err)
				}
				if _, err := e.Restore("r", patched(v)); CodeOf(err) != CodeBadSketch {
					t.Errorf("coordinate %v: restore code %q (%v), want %q", v, CodeOf(err), err, CodeBadSketch)
				}
			}
		})
	}
}

// checkInvariants restores a snapshot and checks the state's structural
// invariants: the doubling algorithm's (a), (b) and (d), or the window's
// bucket ring.
func checkInvariants(snap []byte) error {
	if sketch.IsWindowSketch(snap) {
		ws, err := sketch.DecodeWindow(snap)
		if err != nil {
			return err
		}
		w, err := window.FromSketch(ws)
		if err != nil {
			return err
		}
		return w.CheckInvariants()
	}
	sk, err := sketch.Decode(snap)
	if err != nil {
		return err
	}
	sp, err := sk.Space()
	if err != nil {
		return err
	}
	d, err := streaming.RestoreDoublingIn(sp, sk.State())
	if err != nil {
		return err
	}
	return d.CheckInvariants()
}

// fuzzInput hands out the fuzzer's bytes one decision at a time (zeros once
// they run out).
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// coordinate draws one coordinate from the magnitudes the admission rule and
// the doubling algorithm must get right: small integers, the bound and the
// floats around it, overflowing ones, denormals, zero, the previous
// coordinate again, and raw bit patterns (NaN and ±Inf among them).
func (in *fuzzInput) coordinate(prev float64) float64 {
	sign := float64(1 - 2*int(in.next()&1))
	switch in.next() % 8 {
	case 0:
		return float64(int8(in.next()))
	case 1:
		return sign * []float64{0x1p500, math.Nextafter(0x1p500, 0), math.Nextafter(0x1p500, math.Inf(1)), 1e200, 0x1p499}[in.next()%5]
	case 2:
		return sign * float64(in.next()) * math.SmallestNonzeroFloat64
	case 3:
		return math.Ldexp(sign*float64(in.next()), int(int8(in.next()))*4) // 2^-512 .. 2^508
	case 4:
		var bits uint64
		for range 8 {
			bits = bits<<8 | uint64(in.next())
		}
		return math.Float64frombits(bits)
	case 5:
		return 0
	}
	return prev
}

// FuzzAdmitThenApply sends byte-derived batches, timestamps and advances
// through the front-end rule (ValidateBatch) and then the engine, over every
// stream flavour and built-in space, with no store. Whatever is admitted
// applies (never stream_failed) and leaves the invariants intact; whatever
// is rejected leaves the snapshot bytes unchanged; every call returns.
func FuzzAdmitThenApply(f *testing.F) {
	// A plain Manhattan stream of one dimension fed 32 distinct denormals in
	// two batches: the smallest distance is the smallest float, half of
	// which rounds to zero.
	denormals := []byte{0, 1, 0}
	for b := range 2 {
		denormals = append(denormals, 0, 15, 1) // a batch of 16 points
		for i := range 16 {
			if i > 0 {
				denormals = append(denormals, 1) // not a duplicate
			}
			denormals = append(denormals, 0, 2, byte(16*b+i+1))
		}
	}
	f.Add(denormals)
	f.Add([]byte{
		5, 0, 1, // the z = 0 window stream, Euclidean, two dimensions
		1, 1, 1, // a timestamped batch of two points
		0, 1, 0, 1, 1, 1, // (2^500, -(2^500 rounded down))
		1, 0, 1, 0, 1, 1, 0, // not a duplicate: (2^500, -2^500)
		3, 7, // at +3, +10: admitted
		1, 0, 1, // a timestamped batch of one point
		0, 1, 2, 0, 0, 5, // (2^500 rounded up, 5): refused
		4,    // at +4
		3, 9, // advance by 9
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		fl := flavours[int(in.next())%len(flavours)]
		space := metric.SpaceNames()[int(in.next())%len(metric.SpaceNames())]
		dim := 1 + int(in.next()%3)
		e := New(Config{K: 3, Budget: 24, Dist: space})
		ctx := context.Background()
		if fl.seed != nil {
			p := *fl.seed
			p.Space = metric.SpaceByName(space)
			c, err := clusterer.New(p)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Restore("s", blob); err != nil {
				t.Fatal(err)
			}
		}
		snapshot := func() []byte {
			snap, _, err := e.Snapshot(ctx, "s")
			if CodeOf(err) == CodeUnknownStream {
				return nil
			}
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}
		var clock int64
		for op := 0; op < 12 && len(in) > 0; op++ {
			before := snapshot()
			var err error
			if kind := in.next() % 4; kind == 3 {
				to := clock + int64(int8(in.next()))
				if _, err = e.Advance(ctx, "s", to); err == nil {
					clock = to
				}
			} else {
				n := 1 + int(in.next()%16)
				d := dim
				if in.next()%16 == 0 {
					d = int(in.next() % 4) // the wrong dimension, or none
				}
				batch := make(metric.Dataset, n)
				var prev float64
				for i := range batch {
					if i > 0 && in.next()%4 == 0 {
						batch[i] = batch[i-1] // a duplicate point
						continue
					}
					batch[i] = make(metric.Point, d)
					for j := range batch[i] {
						prev = in.coordinate(prev)
						batch[i][j] = prev
					}
				}
				var ts []int64
				if kind == 1 {
					ts = make([]int64, n)
					at := clock
					for i := range ts {
						at += int64(int8(in.next())) // forward or back
						ts[i] = at
					}
				}
				if err = ValidateBatch(batch, ts); err == nil {
					_, err = e.Ingest(ctx, "s", batch, ts, -1, fl.params)
				}
				if err == nil && ts != nil {
					clock = ts[n-1]
				}
			}
			switch code := CodeOf(err); {
			case err == nil:
				if err := checkInvariants(snapshot()); err != nil {
					t.Fatalf("op %d: admitted, then %v", op, err)
				}
			case code == CodeStreamFailed || code == CodeInternal:
				t.Fatalf("op %d: an admitted mutation failed: %v", op, err)
			case !bytes.Equal(snapshot(), before):
				t.Fatalf("op %d: refused (%s: %v) but the snapshot changed", op, code, err)
			}
		}
	})
}
