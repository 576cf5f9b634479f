package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"coresetclustering/internal/metric"
)

// appendBatch journals one ingest batch and waits until it is durable.
func appendBatch(l *Log, points metric.Dataset, ts []int64) error {
	p, err := l.BeginBatch(points, ts)
	if err != nil {
		return err
	}
	return p.Wait()
}

// appendAdvance journals a clock advance and waits until it is durable.
func appendAdvance(l *Log, ts int64) error {
	p, err := l.BeginAdvance(ts)
	if err != nil {
		return err
	}
	return p.Wait()
}

func testMeta() Meta {
	return Meta{K: 3, Z: 1, Budget: 32, Space: "euclidean", WindowSize: 0, WindowDuration: 0}
}

func testBatch(n, dim int, seed int64) metric.Dataset {
	rng := rand.New(rand.NewSource(seed))
	out := make(metric.Dataset, n)
	for i := range out {
		p := make(metric.Point, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

func openStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	b1 := testBatch(10, 3, 1)
	b2 := testBatch(5, 3, 2)
	ts := []int64{7, 7, 8, 9, 12}
	if err := appendBatch(l, b1, nil); err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, b2, ts); err != nil {
		t.Fatal(err)
	}
	if err := appendAdvance(l, 42); err != nil {
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
	if len(recs) != 1 {
		t.Fatalf("recovered %d streams, want 1", len(recs))
	}
	r := recs[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Name != "demo" || !r.HaveMeta || r.Meta != testMeta() {
		t.Fatalf("recovered name=%q haveMeta=%v meta=%+v", r.Name, r.HaveMeta, r.Meta)
	}
	if r.Snapshot != nil {
		t.Fatalf("unexpected snapshot of %d bytes", len(r.Snapshot))
	}
	if len(r.Tail) != 3 {
		t.Fatalf("tail has %d records, want 3", len(r.Tail))
	}
	if got := r.Tail[0]; got.Op != OpBatch || len(got.Points) != 10 || got.Timestamps != nil {
		t.Fatalf("tail[0] = %+v", got)
	}
	if got := r.Tail[1]; got.Op != OpBatch || len(got.Points) != 5 || len(got.Timestamps) != 5 || got.Timestamps[4] != 12 {
		t.Fatalf("tail[1] = %+v", got)
	}
	if !reflect.DeepEqual(r.Tail[0].Points, b1) {
		t.Fatalf("tail[0] points = %v, want %v", r.Tail[0].Points, b1)
	}
	if got := r.Tail[2]; got.Op != OpAdvance || got.AdvanceTo != 42 {
		t.Fatalf("tail[2] = %+v", got)
	}
	if st := r.Stats; !(st.WALRecords == 4 && st.RecordsReplayed == 3 && st.PointsReplayed == 15 && !st.TornTail) {
		t.Fatalf("stats = %+v", st)
	}
	// The recovered handle must keep appending where the old one stopped.
	if err := appendAdvance(r.Log, 50); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionResetsLogAndSkipsReplay(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := appendBatch(l, testBatch(4, 2, int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	sketch := []byte("pretend-sketch-state")
	if err := l.Compact(sketch); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.WALRecords != 1 || st.Compactions != 1 {
		t.Fatalf("post-compaction stats = %+v", st)
	}
	// One more batch after the compaction: only it should replay.
	post := testBatch(7, 2, 99)
	if err := appendBatch(l, post, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !bytes.Equal(r.Snapshot, sketch) {
		t.Fatalf("snapshot = %q, want %q", r.Snapshot, sketch)
	}
	if !r.HaveMeta || r.Meta != testMeta() {
		t.Fatalf("metadata lost across compaction: haveMeta=%v meta=%+v", r.HaveMeta, r.Meta)
	}
	if len(r.Tail) != 1 || len(r.Tail[0].Points) != 7 {
		t.Fatalf("tail = %+v, want the single post-compaction batch", r.Tail)
	}
}

// TestCrashBetweenSnapshotAndLogReset covers the compaction crash window: the
// snapshot has been renamed into place but the WAL still holds the records it
// folded in. Replay must skip them by sequence number, not apply them twice.
func TestCrashBetweenSnapshotAndLogReset(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendBatch(l, testBatch(4, 2, int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash: write the snapshot with the current lastSeq but do
	// NOT reset the WAL (this is exactly the state after the snapshot rename
	// and before the log reset lands).
	l.mu.Lock()
	if err := l.writeSnapshotLocked(l.seq, []byte("state-after-3-batches")); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.mu.Unlock()
	s.Close()

	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if string(r.Snapshot) != "state-after-3-batches" {
		t.Fatalf("snapshot = %q", r.Snapshot)
	}
	if len(r.Tail) != 0 {
		t.Fatalf("%d records replayed on top of a snapshot that already includes them", len(r.Tail))
	}
	if r.Stats.WALRecords != 4 || r.Stats.RecordsReplayed != 0 {
		t.Fatalf("stats = %+v", r.Stats)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, testBatch(6, 2, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, testBatch(6, 2, 2), nil); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(s.Dir(), encodeName("demo"), walFile)
	s.Close()

	// Tear the last record: chop off its final 5 bytes.
	img, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, img[:len(img)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Tail) != 1 {
		t.Fatalf("tail has %d records, want 1 (the torn one dropped)", len(r.Tail))
	}
	if !r.Stats.TornTail || r.Stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want a reported torn tail", r.Stats)
	}
	// The file itself must have been truncated so appends work again …
	if err := appendAdvance(r.Log, 1); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	// … and a third recovery sees a clean log: 1 old batch + the advance.
	s3, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	recs, err = s3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if r := recs[0]; r.Err != nil || r.Stats.TornTail || len(r.Tail) != 2 {
		t.Fatalf("after truncation: err=%v stats=%+v tail=%d", r.Err, r.Stats, len(r.Tail))
	}
}

func TestCorruptMidFileTruncatesRest(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendBatch(l, testBatch(4, 2, int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(s.Dir(), encodeName("demo"), walFile)
	s.Close()

	img, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-50] ^= 0xFF // flip a byte inside the last record (90-byte frame)
	if err := os.WriteFile(walPath, img, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Tail) != 2 || !r.Stats.TornTail {
		t.Fatalf("tail=%d stats=%+v, want 2 surviving records and a torn tail", len(r.Tail), r.Stats)
	}
}

func TestRemoveTombstonesAndFreesName(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, testBatch(3, 2, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := appendAdvance(l, 1); !errors.Is(err, ErrLogRemoved) {
		t.Fatalf("append after remove: %v, want ErrLogRemoved", err)
	}
	// The name is immediately reusable.
	l2, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatalf("recreate after remove: %v", err)
	}
	if err := appendBatch(l2, testBatch(2, 2, 2), nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err != nil || len(recs[0].Tail) != 1 || len(recs[0].Tail[0].Points) != 2 {
		t.Fatalf("recovered %+v, want only the recreated stream", recs)
	}
}

func TestOpenSweepsTombstonesAndTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "Zm9v"+tombSuffix), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snap"+tmpSuffix), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("leftovers survived open: %v", entries)
	}
}

// TestOpenSweepsStreamDirTmp: a crash between atomicWrite's temp file and
// its rename leaves wal.tmp/snap.tmp INSIDE a stream directory; the next
// Open must remove them without touching the live files.
func TestOpenSweepsStreamDirTmp(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, testBatch(3, 2, 1), nil); err != nil {
		t.Fatal(err)
	}
	streamDir := filepath.Join(s.Dir(), encodeName("demo"))
	s.Close()
	for _, name := range []string{snapFile + tmpSuffix, walFile + tmpSuffix} {
		if err := os.WriteFile(filepath.Join(streamDir, name), []byte("in-flight junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	inner, err := os.ReadDir(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range inner {
		if filepath.Ext(f.Name()) == tmpSuffix {
			t.Fatalf("stale temp file %s survived open", f.Name())
		}
	}
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err != nil || len(recs[0].Tail) != 1 {
		t.Fatalf("stream damaged by the sweep: %+v", recs)
	}
}

func TestCorruptSnapshotSetsStreamAside(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact([]byte("good-state")); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(s.Dir(), encodeName("demo"), snapFile)
	s.Close()
	img, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xFF
	if err := os.WriteFile(snapPath, img, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Err == nil || !errors.Is(recs[0].Err, ErrSnapshotCorrupt) {
		t.Fatalf("recovered %+v, want a snapshot-corrupt error", recs)
	}
	// The name is freed (directory set aside as .failed) …
	if _, err := s2.Create("demo", testMeta()); err != nil {
		t.Fatalf("create after failed recovery: %v", err)
	}
	// … and the evidence is kept.
	if _, err := os.Stat(filepath.Join(s.Dir(), encodeName("demo")+failedSuffix)); err != nil {
		t.Fatalf("failed directory not preserved: %v", err)
	}
}

func TestReplaceInstallsSnapshot(t *testing.T) {
	s := openStore(t, Options{Fsync: FsyncAlways})
	l, err := s.Create("demo", testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l, testBatch(3, 2, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	meta2 := Meta{K: 5, Budget: 64, Space: "manhattan"}
	l2, err := s.Replace("demo", meta2, []byte("restored-sketch"))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatch(l2, testBatch(2, 2, 2), nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(s.Dir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recs, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if string(r.Snapshot) != "restored-sketch" || r.Meta != meta2 || len(r.Tail) != 1 {
		t.Fatalf("recovered %+v", r)
	}
}

func TestFsyncModesAppend(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(mode.String(), func(t *testing.T) {
			s := openStore(t, Options{Fsync: mode, FsyncInterval: time.Millisecond})
			l, err := s.Create("demo", testMeta())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := appendBatch(l, testBatch(3, 2, int64(i)), nil); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			s2, err := Open(s.Dir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			recs, err := s2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if r := recs[0]; r.Err != nil || len(r.Tail) != 10 {
				t.Fatalf("mode %v: err=%v tail=%d", mode, r.Err, len(r.Tail))
			}
		})
	}
}

func TestParseFsyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncMode
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseFsyncMode(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Fatalf("ParseFsyncMode(%q) accepted", tc.in)
		}
	}
}

func TestNameEncodingRoundTripsHostileNames(t *testing.T) {
	for _, name := range []string{"demo", "../escape", "a/b", "..", "wal", "x.tomb", "héllo\x00"} {
		enc := encodeName(name)
		if filepath.Base(enc) != enc || enc == "." || enc == ".." {
			t.Fatalf("encodeName(%q) = %q is not a safe single path element", name, enc)
		}
		dec, err := decodeName(enc)
		if err != nil || dec != name {
			t.Fatalf("decodeName(encodeName(%q)) = %q, %v", name, dec, err)
		}
	}
}

func TestDecodeWALHardErrors(t *testing.T) {
	if _, err := DecodeWAL([]byte("NOPE....junk")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	bad := fileHeader(walMagic)
	binary.BigEndian.PutUint16(bad[4:6], 99)
	if _, err := DecodeWAL(bad); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("bad version: %v", err)
	}
	// Empty input is a valid empty log, not an error.
	res, err := DecodeWAL(nil)
	if err != nil || len(res.Records) != 0 || res.Torn != nil {
		t.Fatalf("empty input: %+v, %v", res, err)
	}
}
