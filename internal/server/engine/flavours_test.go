package engine

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/sketch"
)

// flavour is one row of the stream 2×2 (plain/outliers × insertion-only/
// windowed), plus the outlier streams with z = 0 that can only enter an
// engine as a restored sketch. seed, when set, is how the stream is brought
// into being (a Restore of an empty clusterer's snapshot) instead of by its
// first ingest with params.
type flavour struct {
	name     string
	params   CreateParams
	windowed bool
	seed     *clusterer.Params
}

var flavours = []flavour{
	{name: "plain", params: CreateParams{K: 3, Budget: 24}},
	{name: "outliers", params: CreateParams{K: 3, Z: 2, Budget: 40}},
	{name: "plain-window", params: CreateParams{K: 3, Budget: 24, WinSize: 90}, windowed: true},
	{name: "outliers-window", params: CreateParams{K: 3, Z: 2, Budget: 40, WinDur: 70}, windowed: true},
	{name: "outliers-z0", seed: &clusterer.Params{Kind: sketch.KindOutliers, K: 3, Tau: 24, EpsHat: clusterer.DefaultEpsHat}},
	{name: "outliers-z0-window", windowed: true, seed: &clusterer.Params{
		Kind: sketch.KindOutliers, K: 3, Tau: 24, EpsHat: clusterer.DefaultEpsHat, WindowSize: 90}},
}

// start brings the flavour's stream into being under name and feeds it the
// first batch.
func (f flavour) start(t *testing.T, e *Engine, name string, batch metric.Dataset, ts []int64) {
	t.Helper()
	if f.seed != nil {
		c, err := clusterer.New(*f.seed)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Restore(name, blob); err != nil {
			t.Fatalf("%s: restoring the empty seed: %v", f.name, err)
		}
	}
	mustIngest(t, e, name, batch, ts, f.params)
}

// stamps returns one timestamp per point, increasing from `from`, for the
// windowed flavours (nil otherwise: insertion-only streams refuse them).
func (f flavour) stamps(n int, from int64) []int64 {
	if !f.windowed {
		return nil
	}
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = from + int64(i)
	}
	return ts
}

func mustCenters(t *testing.T, v *QueryView) metric.Dataset {
	t.Helper()
	centers, _, err := v.Centers()
	if err != nil {
		t.Fatal(err)
	}
	return centers
}

func mustViewSnapshot(t *testing.T, v *QueryView) []byte {
	t.Helper()
	snap, _, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func sameDataset(a, b metric.Dataset) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestFlavoursViewIsolation: a published view is a clone. A view held across
// later ingests — and never queried before them — still answers exactly what
// an engine that stopped at the view's batch answers, and the newest view
// answers something else.
func TestFlavoursViewIsolation(t *testing.T) {
	for _, f := range flavours {
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			b1, b2 := randomBatch(rng, 80, 3), randomBatch(rng, 80, 3)
			e, twin := New(Config{}), New(Config{})
			f.start(t, e, "s", b1, f.stamps(len(b1), 0))
			f.start(t, twin, "s", b1, f.stamps(len(b1), 0))

			st, _ := e.Lookup("s")
			held := st.View()
			mustIngest(t, e, "s", b2, f.stamps(len(b2), 100), f.params)
			if f.windowed {
				if _, err := e.Advance(context.Background(), "s", 500); err != nil {
					t.Fatal(err)
				}
			}

			twinSt, _ := twin.Lookup("s")
			want := twinSt.View()
			if got, want := mustViewSnapshot(t, held), mustViewSnapshot(t, want); !bytes.Equal(got, want) {
				t.Error("held view's snapshot changed under later ingests")
			}
			if !sameDataset(mustCenters(t, held), mustCenters(t, want)) {
				t.Error("held view's centers changed under later ingests")
			}
			newest := st.View()
			if newest == held || newest.Version <= held.Version {
				t.Fatalf("no newer view was published (version %d -> %d)", held.Version, newest.Version)
			}
			if bytes.Equal(mustViewSnapshot(t, newest), mustViewSnapshot(t, held)) {
				t.Error("newest view serializes like the held one; the test lost its subject")
			}
		})
	}
}

// TestFlavoursRestoreRoundTrip: restoring a stream's snapshot under another
// name yields a stream that re-snapshots byte-identically and reports the
// same parameters, for every sketch kind — the kind comes from the sketch,
// not from z, so an outlier stream with z = 0 stays one.
func TestFlavoursRestoreRoundTrip(t *testing.T) {
	for _, f := range flavours {
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(32))
			b1 := randomBatch(rng, 120, 3)
			e := New(Config{})
			f.start(t, e, "s", b1, f.stamps(len(b1), 0))
			orig := snapshotOf(t, e, "s", "original")

			if _, err := e.Restore("copy", orig.snap); err != nil {
				t.Fatal(err)
			}
			if again := snapshotOf(t, e, "copy", "restored"); !bytes.Equal(again.snap, orig.snap) {
				t.Error("restored stream does not re-snapshot byte-identically")
			}
			a, err := e.Stats("s")
			if err != nil {
				t.Fatal(err)
			}
			b, err := e.Stats("copy")
			if err != nil {
				t.Fatal(err)
			}
			if a.K != b.K || a.Z != b.Z || a.Budget != b.Budget || a.Space != b.Space ||
				a.Observed != b.Observed || a.WorkingMemory != b.WorkingMemory {
				t.Errorf("restored stats %+v, original %+v", b, a)
			}
			if (a.Window == nil) != (b.Window == nil) || (a.Window != nil && *a.Window != *b.Window) {
				t.Errorf("restored window stats %+v, original %+v", b.Window, a.Window)
			}
			if (a.Window != nil) != f.windowed {
				t.Errorf("window stats present = %v for flavour %s", a.Window != nil, f.name)
			}
			copySt, _ := e.Lookup("copy")
			wantKind := sketch.KindKCenter
			if f.params.Z > 0 || (f.seed != nil && f.seed.Kind == sketch.KindOutliers) {
				wantKind = sketch.KindOutliers
			}
			if got := copySt.core.Kind(); got != wantKind {
				t.Errorf("restored kind %s, want %s", got, wantKind)
			}
			// Both keep evolving identically.
			b2 := randomBatch(rng, 60, 3)
			mustIngest(t, e, "s", b2, f.stamps(len(b2), 200), f.params)
			mustIngest(t, e, "copy", b2, f.stamps(len(b2), 200), f.params)
			if x, y := snapshotOf(t, e, "s", "s+b2"), snapshotOf(t, e, "copy", "copy+b2"); !bytes.Equal(x.snap, y.snap) {
				t.Error("original and restored streams diverged on the same suffix")
			}
		})
	}
}

// TestFlavoursTimestampsNeedAWindow: a timestamped batch aimed at an
// insertion-only stream is not_windowed and changes nothing; aimed at a name
// that does not exist (without window parameters) it does not create one.
func TestFlavoursTimestampsNeedAWindow(t *testing.T) {
	for _, f := range flavours {
		if f.windowed {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(33))
			b1 := randomBatch(rng, 40, 3)
			ts := make([]int64, len(b1))
			e := New(Config{})

			if _, err := e.Ingest(context.Background(), "fresh", b1, ts, -1, f.params); CodeOf(err) != CodeNotWindowed {
				t.Fatalf("timestamped first batch: code %q (%v), want %q", CodeOf(err), err, CodeNotWindowed)
			}
			if _, ok := e.Lookup("fresh"); ok || len(e.StreamNames()) != 0 {
				t.Fatal("the rejected batch created a stream")
			}

			f.start(t, e, "s", b1, nil)
			before := snapshotOf(t, e, "s", "before")
			if _, err := e.Ingest(context.Background(), "s", b1, ts, -1, f.params); CodeOf(err) != CodeNotWindowed {
				t.Fatalf("timestamped batch into an insertion-only stream: code %q (%v), want %q", CodeOf(err), err, CodeNotWindowed)
			}
			if _, err := e.Advance(context.Background(), "s", 10); CodeOf(err) != CodeNotWindowed {
				t.Fatalf("advance of an insertion-only stream: code %q (%v), want %q", CodeOf(err), err, CodeNotWindowed)
			}
			if after := snapshotOf(t, e, "s", "after"); !bytes.Equal(after.snap, before.snap) {
				t.Error("rejected operations changed the stream")
			}
		})
	}
}

// TestFlavoursBootRecovery: a durable engine that compacted once (snapshot on
// disk) and then journaled more (WAL tail) comes back, in a fresh engine over
// the same directory, with a snapshot byte-identical to an uninterrupted
// in-memory engine's — the kind, parameters and dimension all read off the
// restored clusterer.
func TestFlavoursBootRecovery(t *testing.T) {
	for _, f := range flavours {
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(34))
			b1, b2, b3 := randomBatch(rng, 70, 3), randomBatch(rng, 70, 3), randomBatch(rng, 30, 3)
			drive := func(e *Engine, compact bool) {
				f.start(t, e, "s", b1, f.stamps(len(b1), 0))
				if compact {
					st, _ := e.Lookup("s")
					v := st.View()
					if err := st.Log().CompactAt(v.WalSeq, mustViewSnapshot(t, v)); err != nil {
						t.Fatal(err)
					}
				}
				mustIngest(t, e, "s", b2, f.stamps(len(b2), 100), f.params)
				if f.windowed {
					if _, err := e.Advance(context.Background(), "s", 300); err != nil {
						t.Fatal(err)
					}
				}
				mustIngest(t, e, "s", b3, f.stamps(len(b3), 300), f.params)
			}

			uninterrupted := New(Config{})
			drive(uninterrupted, false)
			want := snapshotOf(t, uninterrupted, "s", "uninterrupted")

			dir := t.TempDir()
			e, store := openDurable(t, dir)
			drive(e, true)
			if got := snapshotOf(t, e, "s", "durable, before the restart"); !bytes.Equal(got.snap, want.snap) {
				t.Fatal("durable and in-memory engines diverged before any restart")
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			e2, store2 := openDurable(t, dir)
			defer store2.Close()
			if failed := e2.FailedStreams(); len(failed) != 0 {
				t.Fatalf("recovery set streams aside: %v", failed)
			}
			got := snapshotOf(t, e2, "s", "recovered")
			if !bytes.Equal(got.snap, want.snap) {
				t.Error("recovered snapshot is not byte-identical to the uninterrupted engine's")
			}
			stats, err := e2.Stats("s")
			if err != nil {
				t.Fatal(err)
			}
			rec := stats.Durability.Recovery
			if rec == nil || !rec.SnapshotLoaded || rec.RecordsReplayed == 0 {
				t.Errorf("recovery stats %+v: want a loaded snapshot and a replayed tail", rec)
			}
			wantStats, _ := uninterrupted.Stats("s")
			if stats.K != wantStats.K || stats.Z != wantStats.Z || stats.Budget != wantStats.Budget ||
				stats.Space != wantStats.Space || stats.Observed != wantStats.Observed {
				t.Errorf("recovered stats %+v, uninterrupted %+v", stats, wantStats)
			}
			// The recovered stream still knows its dimension.
			if _, err := e2.Ingest(context.Background(), "s", randomBatch(rng, 5, 4), f.stamps(5, 400), -1, f.params); CodeOf(err) != CodeDimensionMismatch {
				t.Errorf("4-d batch into the recovered 3-d stream: code %q (%v), want %q", CodeOf(err), err, CodeDimensionMismatch)
			}
		})
	}
}
