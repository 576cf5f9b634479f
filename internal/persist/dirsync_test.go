package persist

import (
	"os"
	"path/filepath"
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
