package persist

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestCompactAtPreservesTailAcrossRewrite is the core off-lock-compaction
// property: records appended AFTER the capture point (as happens when ingest
// keeps running while a background compaction serializes an older view) must
// survive the WAL rewrite verbatim and replay on top of the snapshot.
func TestCompactAtPreservesTailAcrossRewrite(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	// Two records up to the capture point, then two more "concurrent" ones.
	if err := appendBatch(l, testBatch(4, 2, 1), nil); err != nil { // seq 2
		t.Fatal(err)
	}
	if err := appendBatch(l, testBatch(3, 2, 2), nil); err != nil { // seq 3
		t.Fatal(err)
	}
	capture := l.LastSeq()
	if capture != 3 {
		t.Fatalf("capture seq = %d, want 3", capture)
	}
	if err := appendBatch(l, testBatch(2, 2, 3), nil); err != nil { // seq 4
		t.Fatal(err)
	}
	if err := appendAdvance(l, 9); err != nil { // seq 5
		t.Fatal(err)
	}

	sketch := []byte("state-as-of-seq-3")
	if err := l.CompactAt(capture, sketch); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.WALRecords != 3 || st.Compactions != 1 || st.LastSeq != 5 {
		// create + the two post-capture records.
		t.Fatalf("stats after CompactAt = %+v", st)
	}
	// The handle keeps appending where it stopped.
	if err := appendAdvance(l, 10); err != nil { // seq 6
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(s.Dir(), Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err != nil {
		t.Fatalf("recovery: %+v", recs)
	}
	r := recs[0]
	if string(r.Snapshot) != string(sketch) || r.Stats.SnapshotSeq != capture {
		t.Fatalf("snapshot = %q at seq %d, want %q at %d", r.Snapshot, r.Stats.SnapshotSeq, sketch, capture)
	}
	if !r.HaveMeta || r.Meta != testMeta() {
		t.Fatalf("metadata lost across CompactAt: haveMeta=%v meta=%+v", r.HaveMeta, r.Meta)
	}
	if len(r.Tail) != 3 {
		t.Fatalf("replay tail has %d records, want 3 (seqs 4, 5, 6)", len(r.Tail))
	}
	if r.Tail[0].Op != OpBatch || len(r.Tail[0].Points) != 2 || r.Tail[0].Seq != 4 {
		t.Fatalf("tail[0] = %+v", r.Tail[0])
	}
	if r.Tail[1].Op != OpAdvance || r.Tail[1].AdvanceTo != 9 || r.Tail[1].Seq != 5 {
		t.Fatalf("tail[1] = %+v", r.Tail[1])
	}
	if r.Tail[2].Op != OpAdvance || r.Tail[2].AdvanceTo != 10 || r.Tail[2].Seq != 6 {
		t.Fatalf("tail[2] = %+v", r.Tail[2])
	}
}

// TestCompactAtAtTipMatchesCompact checks the degenerate case — capture at
// the log tip — leaves an empty tail, exactly like Compact.
func TestCompactAtAtTipMatchesCompact(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, testBatch(5, 2, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.CompactAt(l.LastSeq(), []byte("tip")); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.WALRecords != 1 || st.LastSeq != 2 {
		t.Fatalf("stats = %+v, want only the create record at seq 2", st)
	}
}

func TestCompactAtRejectsBadCapture(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, testBatch(1, 2, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.CompactAt(0, []byte("x")); err == nil {
		t.Fatal("capture 0 accepted")
	}
	if err := l.CompactAt(l.LastSeq()+1, []byte("x")); err == nil {
		t.Fatal("capture beyond the tip accepted")
	}
	// The snapshot horizon only moves forward: once seq 2 is folded in, a
	// stale capture at seq 1 must not regress it (records between the two
	// would be orphaned).
	if err := l.CompactAt(2, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, testBatch(1, 2, 2), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.CompactAt(1, []byte("stale")); err == nil || !strings.Contains(err.Error(), "snapshot horizon") {
		t.Fatalf("stale capture: err = %v, want a snapshot-horizon rejection", err)
	}
}

// TestCompactAtConcurrentAppends interleaves a steady appender with repeated
// compactions at whatever the tip was a moment earlier (run under -race in
// CI). Afterwards every acknowledged record must be accounted for: at or
// below the final snapshot horizon, or alive in the replay tail.
func TestCompactAtConcurrentAppends(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncNever})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	const appends = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := appendBatch(l, testBatch(1, 2, int64(i)), nil); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	var lastCapture uint64
	for i := 0; i < 20; i++ {
		capture := l.LastSeq()
		if capture <= lastCapture {
			continue
		}
		if err := l.CompactAt(capture, []byte(fmt.Sprintf("sketch-%d", capture))); err != nil {
			t.Fatalf("CompactAt(%d): %v", capture, err)
		}
		lastCapture = capture
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := l.LastSeq(); got != appends+1 {
		t.Fatalf("final seq = %d, want %d", got, appends+1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(s.Dir(), Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err != nil {
		t.Fatalf("recovery: %+v", recs)
	}
	r := recs[0]
	snapSeq := r.Stats.SnapshotSeq
	if snapSeq != lastCapture {
		t.Fatalf("snapshot seq = %d, want the last capture %d", snapSeq, lastCapture)
	}
	if want := fmt.Sprintf("sketch-%d", lastCapture); string(r.Snapshot) != want {
		t.Fatalf("snapshot payload = %q, want %q", r.Snapshot, want)
	}
	// The tail must be exactly the records beyond the snapshot, gapless.
	if got, want := len(r.Tail), int(uint64(appends+1)-snapSeq); got != want {
		t.Fatalf("tail has %d records, want %d (seqs %d..%d)", got, want, snapSeq+1, appends+1)
	}
	for i, rec := range r.Tail {
		if rec.Seq != snapSeq+1+uint64(i) {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, rec.Seq, snapSeq+1+uint64(i))
		}
	}
}
