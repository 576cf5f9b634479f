package persist

import (
	"errors"
	"os"
	"path/filepath"
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

// failNextDirSync makes the store's next sync of dir fail with errDirSync;
// every other sync, and every later one of dir, goes through.
func failNextDirSync(s *Store, dir string) {
	armed := true
	s.dirSync = func(d string) error {
		if armed && d == dir {
			armed = false
			return errDirSync
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

			failNextDirSync(s, streamDir("a"))
			if _, err := s.Create("a", testMeta()); !errors.Is(err, errDirSync) {
				t.Fatalf("Create = %v, want the directory sync failure", err)
			}
			if _, err := os.Stat(streamDir("a")); !os.IsNotExist(err) {
				t.Fatalf("failed Create left its directory behind: %v", err)
			}
			if _, err := s.Create("a", testMeta()); err != nil {
				t.Fatalf("Create after the failure: %v", err)
			}

			failNextDirSync(s, streamDir("b"))
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
			failNextDirSync(s, streamDir("c"))
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
			// snapshot alone — the rebuild fails on the sync, and a rebuild
			// that succeeds leaves AdoptMeta to journal the metadata, which
			// fails on it too.
			if err := os.Remove(filepath.Join(streamDir("c"), walFile)); err != nil {
				t.Fatal(err)
			}
			for _, step := range []string{"rebuild", "adopt"} {
				s2, err := Open(s.Dir(), Options{Fsync: mode})
				if err != nil {
					t.Fatal(err)
				}
				if step == "rebuild" {
					failNextDirSync(s2, streamDir("c"))
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
				case step == "rebuild":
					if !errors.Is(rec.Err, errDirSync) {
						t.Fatalf("rebuild: recovery error %v, want the directory sync failure", rec.Err)
					}
					// Recovery set the directory aside; put it back.
					if err := os.Rename(streamDir("c")+failedSuffix, streamDir("c")); err != nil {
						t.Fatal(err)
					}
				default:
					if rec.Err != nil || rec.HaveMeta || string(rec.Snapshot) != "three batches" {
						t.Fatalf("adopt: recovered %+v, want the snapshot without metadata", rec)
					}
					failNextDirSync(s2, streamDir("c"))
					if err := rec.Log.AdoptMeta(testMeta()); !errors.Is(err, errDirSync) {
						t.Fatalf("AdoptMeta = %v, want the directory sync failure", err)
					}
				}
				if err := s2.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
