package engine

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/persist"
)

// tagged is one observed (snapshot, validator) pair of some stream state.
type tagged struct {
	label string
	snap  []byte
	tag   string
}

func snapshotOf(t *testing.T, e *Engine, name, label string) tagged {
	t.Helper()
	snap, tag, err := e.Snapshot(context.Background(), name)
	if err != nil {
		t.Fatalf("%s: snapshot: %v", label, err)
	}
	if tag == "" {
		t.Fatalf("%s: empty validator", label)
	}
	return tagged{label, snap, tag}
}

func randomBatch(rng *rand.Rand, n, dim int) metric.Dataset {
	ds := make(metric.Dataset, n)
	for i := range ds {
		p := make(metric.Point, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 100
		}
		ds[i] = p
	}
	return ds
}

func mustIngest(t *testing.T, e *Engine, name string, batch metric.Dataset, ts []int64, p CreateParams) {
	t.Helper()
	if _, err := e.Ingest(context.Background(), name, batch, ts, -1, p); err != nil {
		t.Fatalf("ingest into %s: %v", name, err)
	}
}

// openDurable opens (or reopens) a durable engine over dir, adopting whatever
// the store recovers — the boot sequence of a shard daemon.
func openDurable(t *testing.T, dir string) (*Engine, *persist.Store) {
	t.Helper()
	e := New(Config{K: 3, Budget: 24})
	store, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever, CompactEvery: -1, Hooks: e.PersistHooks()})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	e.Store = store
	e.AdoptRecovered(recovered)
	return e, store
}

// TestValidatorTracksSnapshotBytes is the validator's contract at the layer
// that defines it: over every state a stream passes through — ingest, clock
// advance, restore, delete and recreate, WAL recovery in a fresh engine — two
// validators are equal exactly when the snapshot bytes are. A counter-based
// tag would fail the recovery and recreate legs (it restarts with the
// process); a tag that ignored part of the state would fail the others.
func TestValidatorTracksSnapshotBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	plain := CreateParams{K: 3, Budget: 24}
	window := CreateParams{K: 3, Budget: 24, WinDur: 100}
	b1, b2 := randomBatch(rng, 60, 3), randomBatch(rng, 60, 3)
	wb := randomBatch(rng, 40, 3)
	wts := make([]int64, len(wb))
	for i := range wts {
		wts[i] = int64(i)
	}

	dir := t.TempDir()
	e, store := openDurable(t, dir)
	var seen []tagged
	see := func(eng *Engine, name, label string) tagged {
		s := snapshotOf(t, eng, name, label)
		seen = append(seen, s)
		return s
	}
	mustDiffer := func(a, b tagged) {
		t.Helper()
		if bytes.Equal(a.snap, b.snap) {
			t.Fatalf("%s and %s serialize identically; the test lost its subject", a.label, b.label)
		}
	}

	// Ingest: every acknowledged batch is a new version with new bytes; a
	// repeated read of one version is the same pair.
	mustIngest(t, e, "s", b1, nil, plain)
	afterB1 := see(e, "s", "s after batch 1")
	see(e, "s", "s after batch 1, read again")
	mustIngest(t, e, "s", b2, nil, plain)
	afterB2 := see(e, "s", "s after batch 2")
	mustDiffer(afterB1, afterB2)

	// Advance: a window stream's clock is part of its state.
	mustIngest(t, e, "w", wb, wts, window)
	beforeAdvance := see(e, "w", "w before advance")
	if _, err := e.Advance(context.Background(), "w", 120); err != nil {
		t.Fatal(err)
	}
	mustDiffer(beforeAdvance, see(e, "w", "w after advance"))

	// Restore: the name takes over the restored sketch's state.
	if _, err := e.Restore("s", afterB1.snap); err != nil {
		t.Fatal(err)
	}
	restored := see(e, "s", "s restored to batch 1")
	mustDiffer(restored, afterB2)

	// Delete + recreate: in-process version counters restart at the same
	// values, the content differs — and the same content under another name,
	// in another life, is the same sketch.
	if err := e.Delete("s"); err != nil {
		t.Fatal(err)
	}
	mustIngest(t, e, "s", b2, nil, plain)
	recreated := see(e, "s", "s recreated from batch 2 alone")
	mustDiffer(recreated, afterB1)
	mustIngest(t, e, "twin", b2, nil, plain)
	see(e, "twin", "twin of the recreated s")
	beforeCrash := see(e, "w", "w before the crash")

	// Recovery: a fresh engine replays the same WAL (the SIGKILL form of this
	// leg runs against real processes in the router's cluster tests).
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	e2, store2 := openDurable(t, dir)
	defer store2.Close()
	for _, pair := range []struct {
		name   string
		before tagged
	}{{"s", recreated}, {"w", beforeCrash}} {
		after := see(e2, pair.name, pair.name+" recovered")
		if !bytes.Equal(after.snap, pair.before.snap) {
			t.Fatalf("%s: recovery is not byte-identical", pair.name)
		}
		if after.tag != pair.before.tag {
			t.Fatalf("%s: validator %s before the crash, %s after byte-identical recovery",
				pair.name, pair.before.tag, after.tag)
		}
	}

	for i, a := range seen {
		for _, b := range seen[i+1:] {
			if same := bytes.Equal(a.snap, b.snap); same != (a.tag == b.tag) {
				t.Errorf("%s (%s) vs %s (%s): bytes equal = %v, validators equal = %v",
					a.label, a.tag, b.label, b.tag, same, a.tag == b.tag)
			}
		}
	}
}

// TestValidatorHashedOncePerView pins where the hash is paid: the first
// SnapshotTag of a view serializes and hashes, later ones return the memo,
// and a view nobody asked (compaction takes Snapshot alone) carries no tag.
func TestValidatorHashedOncePerView(t *testing.T) {
	e := New(Config{K: 3, Budget: 24})
	mustIngest(t, e, "s", randomBatch(rand.New(rand.NewSource(1)), 30, 2), nil, CreateParams{K: 3, Budget: 24})
	st, _ := e.Lookup("s")
	v := st.View()
	if _, hit, err := v.Snapshot(); err != nil || hit {
		t.Fatalf("first Snapshot: hit=%v err=%v", hit, err)
	}
	if v.snapTag != "" {
		t.Fatal("Snapshot alone hashed the view")
	}
	snap, tag, hit, err := v.SnapshotTag()
	if err != nil || !hit {
		t.Fatalf("SnapshotTag after Snapshot: hit=%v err=%v", hit, err)
	}
	if tag != SketchTag(snap) {
		t.Fatalf("memoised tag %s is not SketchTag of the bytes", tag)
	}
	if _, again, _, _ := v.SnapshotTag(); again != tag {
		t.Fatalf("second SnapshotTag answered %s, first %s", again, tag)
	}
}
