package engine

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"coresetclustering/internal/persist"
)

// TestNoLoggerWired: an engine from New logs with no logger set by its
// embedder. A compaction whose stream directory vanished fails, and its
// error line goes to New's discarding logger instead of panicking the
// compaction goroutine (and with it the process).
func TestNoLoggerWired(t *testing.T) {
	e := New(Config{K: 3, Budget: 24})
	dir := t.TempDir()
	store, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever, CompactEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	e.Store = store

	entered := make(chan struct{})
	CompactStartHook = func() {
		entries, _ := os.ReadDir(dir)
		for _, ent := range entries {
			os.RemoveAll(filepath.Join(dir, ent.Name()))
		}
		close(entered)
	}
	defer func() { CompactStartHook = func() {} }()

	mustIngest(t, e, "s", randomBatch(rand.New(rand.NewSource(1)), 10, 2), nil, CreateParams{K: 3, Budget: 24})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("compaction never started")
	}
	st, _ := e.Lookup("s")
	for deadline := time.Now().Add(5 * time.Second); st.compacting.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("compaction never finished")
		}
	}
}
