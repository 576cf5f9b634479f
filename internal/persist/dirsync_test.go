package persist

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestNamespaceOpsSyncStoreRoot: each operation that creates or renames a
// stream directory — Create, Replace, Remove, SetAside and recovery's
// set-aside — is followed by an fsync of the store root before it returns,
// under both syncing modes. Under FsyncNever no directory is synced.
func TestNamespaceOpsSyncStoreRoot(t *testing.T) {
	type dirOp struct{ op, path string }
	for _, mode := range []FsyncMode{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(mode.String(), func(t *testing.T) {
			root := t.TempDir()
			var ops []dirOp
			record := func(op, path string) { ops = append(ops, dirOp{op, path}) }

			// check runs fn and asserts that the op it made in the store
			// root is followed by a sync of the root before fn returned.
			check := func(what, op string, fn func() error) {
				t.Helper()
				ops = ops[:0]
				if err := fn(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				at := -1
				for i, o := range ops {
					if o.op == op && filepath.Dir(o.path) == root {
						at = i
						break
					}
				}
				if at < 0 {
					t.Fatalf("%s: no %s in the store root among %v", what, op, ops)
				}
				synced := false
				for _, o := range ops[at+1:] {
					synced = synced || (o.op == "syncdir" && o.path == root)
				}
				if want := mode != FsyncNever; synced != want {
					t.Fatalf("%s: store root synced after the %s = %v, want %v (ops %v)", what, op, synced, want, ops)
				}
			}

			s, err := Open(root, Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			s.dirOpHook = record
			var l *Log
			check("Create", "mkdir", func() (err error) {
				l, err = s.Create("a", testMeta())
				return err
			})
			check("Remove", "rename", l.Remove)
			check("Replace", "mkdir", func() (err error) {
				l, err = s.Replace("b", testMeta(), []byte("sketch"))
				return err
			})
			check("SetAside", "rename", l.SetAside)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// A directory whose name is not base64url cannot be recovered, so
			// recovery sets it aside.
			if err := os.Mkdir(filepath.Join(root, "not base64!"), 0o755); err != nil {
				t.Fatal(err)
			}
			s, err = Open(root, Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.dirOpHook = record
			check("Recover", "rename", func() error {
				recs, err := s.Recover()
				if err == nil && (len(recs) != 1 || recs[0].Err == nil) {
					t.Fatalf("recovered %+v, want the one undecodable directory failed", recs)
				}
				return err
			})
		})
	}
}

var errDirSync = errors.New("injected directory sync failure")

// failDirSync lets the store's next skip syncs of dir through and makes the
// one after them fail with errDirSync; every other sync, and every later one
// of dir, goes through.
func failDirSync(s *Store, dir string, skip int) {
	s.dirSync = func(d string) error {
		if d == dir {
			skip--
			if skip == -1 {
				return errDirSync
			}
		}
		return syncDir(d)
	}
}

// TestWALSwapDirSyncFailure: a failed sync of the stream directory after the
// WAL rename is an error, because until it lands the rename may not survive a
// power loss and every record appended after it lives only in the new inode.
// Create, Replace, recovery's WAL rebuild and AdoptMeta fail on it, and a
// compaction leaves the log poisoned: the next append is refused. Under both
// syncing modes; FsyncNever syncs no directory.
func TestWALSwapDirSyncFailure(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncInterval} {
		t.Run(mode.String(), func(t *testing.T) {
			s := openStore(t, Options{Fsync: mode})
			streamDir := func(name string) string { return filepath.Join(s.Dir(), encodeName(name)) }

			failDirSync(s, streamDir("a"), 0)
			if _, err := s.Create("a", testMeta()); !errors.Is(err, errDirSync) {
				t.Fatalf("Create = %v, want the directory sync failure", err)
			}
			if _, err := os.Stat(streamDir("a")); !os.IsNotExist(err) {
				t.Fatalf("failed Create left its directory behind: %v", err)
			}
			if _, err := s.Create("a", testMeta()); err != nil {
				t.Fatalf("Create after the failure: %v", err)
			}

			failDirSync(s, streamDir("b"), 0)
			if _, err := s.Replace("b", testMeta(), []byte("sketch")); !errors.Is(err, errDirSync) {
				t.Fatalf("Replace = %v, want the directory sync failure", err)
			}

			// Compaction: the snapshot holds every batch so far, the log is
			// poisoned, and recovery finds every acked batch.
			l, err := s.Create("c", testMeta())
			if err != nil {
				t.Fatal(err)
			}
			for i := range 3 {
				if err := appendBatch(l, testBatch(4, 2, int64(i)), nil); err != nil {
					t.Fatal(err)
				}
			}
			failDirSync(s, streamDir("c"), 1) // the snapshot's sync passes, the WAL swap's fails
			if err := l.CompactAt(l.LastSeq(), []byte("three batches")); !errors.Is(err, errDirSync) {
				t.Fatalf("CompactAt = %v, want the directory sync failure", err)
			}
			if err := appendBatch(l, testBatch(4, 2, 9), nil); !errors.Is(err, errDirSync) || !strings.Contains(err.Error(), "poisoned") {
				t.Fatalf("append after the failed compaction = %v, want the poisoned log's error", err)
			}
			if l.ShouldCompact() {
				t.Fatal("a poisoned log asks for compaction")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery: without its WAL, stream c is rebuilt from the
			// snapshot alone. A rebuild that fails on the sync recovers the
			// stream with its log poisoned; the next boot rebuilds the WAL
			// and takes appends; and AdoptMeta, which journals the
			// metadata, poisons the log whether it fails before the rename
			// (here a directory squats on the temp name) or on the sync.
			if err := os.Remove(filepath.Join(streamDir("c"), walFile)); err != nil {
				t.Fatal(err)
			}
			for _, step := range []string{"rebuild", "reopen", "adopt"} {
				s2, err := Open(s.Dir(), Options{Fsync: mode})
				if err != nil {
					t.Fatal(err)
				}
				if step == "rebuild" {
					failDirSync(s2, streamDir("c"), 0)
				}
				recs, err := s2.Recover()
				if err != nil {
					t.Fatal(err)
				}
				var rec *Recovered
				for _, r := range recs {
					if r.Name == "c" {
						rec = r
					}
				}
				switch {
				case rec == nil:
					t.Fatalf("%s: stream c not recovered: %+v", step, recs)
				case rec.Err != nil:
					t.Fatalf("%s: recovery error %v, want the stream recovered", step, rec.Err)
				case step == "rebuild":
					if err := appendBatch(rec.Log, testBatch(4, 2, 9), nil); !errors.Is(err, errDirSync) || !strings.Contains(err.Error(), "poisoned") {
						t.Fatalf("rebuild: append = %v, want the poisoned log's error", err)
					}
				case step == "reopen":
					if err := appendBatch(rec.Log, testBatch(4, 2, 9), nil); err != nil {
						t.Fatalf("reopen: append = %v", err)
					}
				default:
					if rec.Err != nil || rec.HaveMeta || string(rec.Snapshot) != "three batches" {
						t.Fatalf("adopt: recovered %+v, want the snapshot without metadata", rec)
					}
					tmp := filepath.Join(streamDir("c"), walFile+tmpSuffix)
					if err := os.Mkdir(tmp, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := rec.Log.AdoptMeta(testMeta()); err == nil {
						t.Fatal("AdoptMeta over a directory at the temp name succeeded")
					}
					if err := appendBatch(rec.Log, testBatch(4, 2, 10), nil); err == nil || !strings.Contains(err.Error(), "poisoned") {
						t.Fatalf("append after AdoptMeta failed before the rename = %v, want the poisoned log's error", err)
					}
					if err := os.Remove(tmp); err != nil {
						t.Fatal(err)
					}
					failDirSync(s2, streamDir("c"), 0)
					if err := rec.Log.AdoptMeta(testMeta()); !errors.Is(err, errDirSync) {
						t.Fatalf("AdoptMeta = %v, want the directory sync failure", err)
					}
					if err := appendBatch(rec.Log, testBatch(4, 2, 10), nil); !errors.Is(err, errDirSync) || !strings.Contains(err.Error(), "poisoned") {
						t.Fatalf("append after AdoptMeta failed on the sync = %v, want the poisoned log's error", err)
					}
				}
				if err := s2.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotDirSyncFailure: a failed sync of the stream directory after the
// snapshot rename fails the compaction before the WAL is rewritten, so the
// log stays appendable, and recovery returns every acked batch whichever
// snapshot the disk kept. Under both syncing modes.
func TestSnapshotDirSyncFailure(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncInterval} {
		t.Run(mode.String(), func(t *testing.T) {
			s := openStore(t, Options{Fsync: mode})
			dir := filepath.Join(s.Dir(), encodeName("c"))
			l, err := s.Create("c", testMeta())
			if err != nil {
				t.Fatal(err)
			}
			var acked []uint64
			ack := func() {
				t.Helper()
				if err := appendBatch(l, testBatch(4, 2, int64(len(acked))), nil); err != nil {
					t.Fatal(err)
				}
				acked = append(acked, l.LastSeq())
			}
			// Each snapshot's payload names the sequence number it covers.
			compact := func() error { return l.CompactAt(l.LastSeq(), []byte(strconv.FormatUint(l.LastSeq(), 10))) }
			ack()
			ack()
			if err := compact(); err != nil {
				t.Fatal(err)
			}
			ack()
			oldSnap, err := os.ReadFile(filepath.Join(dir, snapFile))
			if err != nil {
				t.Fatal(err)
			}
			failDirSync(s, dir, 0)
			if err := compact(); !errors.Is(err, errDirSync) {
				t.Fatalf("CompactAt = %v, want the directory sync failure", err)
			}
			ack()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			for _, kept := range []string{"new", "old"} {
				if kept == "old" {
					// The rename did not last: the disk kept the old snapshot.
					if err := os.WriteFile(filepath.Join(dir, snapFile), oldSnap, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				s2, err := Open(s.Dir(), Options{Fsync: mode})
				if err != nil {
					t.Fatal(err)
				}
				recs, err := s2.Recover()
				if err != nil || len(recs) != 1 || recs[0].Err != nil {
					t.Fatalf("%s snapshot: recovered %+v, %v", kept, recs, err)
				}
				rec := recs[0]
				if got := string(rec.Snapshot); got != strconv.FormatUint(rec.Stats.SnapshotSeq, 10) {
					t.Fatalf("%s snapshot: payload %q at sequence %d", kept, got, rec.Stats.SnapshotSeq)
				}
				var want, got []uint64
				for _, seq := range acked {
					if seq > rec.Stats.SnapshotSeq {
						want = append(want, seq)
					}
				}
				for _, r := range rec.Tail {
					got = append(got, r.Seq)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s snapshot at sequence %d: replays %v, want %v of the acked %v", kept, rec.Stats.SnapshotSeq, got, want, acked)
				}
				if err := s2.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
