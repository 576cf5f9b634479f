package httpapi

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/persist"
)

// gcTagBatch builds the tagged batch writer w sends as its idx-th request:
// every point's first coordinate encodes (writer, idx), so the WAL read back
// after the kill identifies exactly which batches became durable.
func gcTagBatch(w, idx int) kcenter.Dataset {
	tag := float64(w*100000 + idx)
	out := make(kcenter.Dataset, 4)
	for j := range out {
		out[j] = kcenter.Point{tag, float64(idx) * 0.5, float64(j)}
	}
	return out
}

// TestKillRecoverGroupCommitConcurrent is the crash-safety half of the
// group-commit contract: a real daemon running -fsync=always (group commit
// is that mode's only path) is SIGKILLed while concurrent writers (JSON and binary alike) are
// mid-flight, and afterwards
//
//   - every acknowledged batch is present in the recovered WAL (a shared
//     fsync must cover a frame before ANY of the group's acks go out),
//   - each writer's durable batches form a dense prefix of what it sent
//     (journal order equals send order per writer, no holes), and
//   - a daemon recovered from the WAL re-snapshots byte-identically to an
//     uninterrupted reference fed the same records in WAL order.
func TestKillRecoverGroupCommitConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	const writers = 6
	dir := t.TempDir()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	child := exec.Command(os.Args[0])
	child.Env = append(os.Environ(),
		"KCENTERD_CHILD=1",
		"KCENTERD_ARGS=-addr "+addr+" -k 4 -budget 48 -persist-dir "+dir+" -fsync always -compact-every -1",
	)
	var childLog bytes.Buffer
	child.Stderr = &childLog
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			child.Process.Kill()
			child.Wait()
		}
	}()
	waitHealthy(t, "http://"+addr, 10*time.Second, &childLog)

	// Concurrent writers: each sends its tagged batches sequentially (idx+1
	// only after idx is acked) and records the highest acked idx. Even
	// writers speak the binary protocol, odd ones JSON — both ride the same
	// group-commit window.
	ackedMax := make([]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ackedMax[w] = -1
			client := &http.Client{Timeout: 5 * time.Second}
			for idx := 0; ; idx++ {
				points := gcTagBatch(w, idx)
				var resp *http.Response
				var err error
				if w%2 == 0 {
					resp, err = client.Post("http://"+addr+"/streams/gc/ingest",
						BinaryContentType, bytes.NewReader(binaryBody(t, points, nil)))
				} else {
					body, merr := jsonBody(points)
					if merr != nil {
						t.Error(merr)
						return
					}
					resp, err = client.Post("http://"+addr+"/streams/gc/points",
						"application/json", bytes.NewReader(body))
				}
				if err != nil {
					return // the kill landed
				}
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if !ok {
					return
				}
				ackedMax[w] = idx
			}
		}(w)
	}
	time.Sleep(300 * time.Millisecond) // let the writers pile into group commits
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()
	killed = true
	wg.Wait()

	var totalAcked int
	for w := 0; w < writers; w++ {
		totalAcked += ackedMax[w] + 1
	}
	if totalAcked == 0 {
		t.Fatalf("no batch was acked before the kill\nchild log:\n%s", childLog.String())
	}

	// Read the durable truth straight from the WAL.
	store, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	var tail []persist.Record
	found := false
	for _, rec := range recs {
		if rec.Name != "gc" {
			continue
		}
		if rec.Err != nil {
			t.Fatalf("stream failed to recover: %v\nchild log:\n%s", rec.Err, childLog.String())
		}
		tail, found = rec.Tail, true
	}
	store.Close()
	if !found {
		t.Fatalf("stream gc not recovered (acked %d batches)\nchild log:\n%s", totalAcked, childLog.String())
	}

	// Decode the per-writer durable indices and check them against the acks.
	durableMax := make([]int, writers)
	for w := range durableMax {
		durableMax[w] = -1
	}
	for i, rec := range tail {
		if rec.Op != persist.OpBatch || len(rec.Points) == 0 {
			t.Fatalf("tail record %d: op %v with %d points", i, rec.Op, len(rec.Points))
		}
		tag := int(rec.Points[0][0])
		w, idx := tag/100000, tag%100000
		if w < 0 || w >= writers {
			t.Fatalf("tail record %d carries foreign tag %d", i, tag)
		}
		// Dense prefix per writer: the writer sent idx only after idx-1 was
		// acked, and WAL order is ack order, so a hole would mean a covering
		// fsync was skipped.
		if idx != durableMax[w]+1 {
			t.Fatalf("writer %d: durable idx %d follows %d (hole in the WAL)", w, idx, durableMax[w])
		}
		durableMax[w] = idx
	}
	for w := 0; w < writers; w++ {
		if durableMax[w] < ackedMax[w] {
			t.Fatalf("writer %d: acked through idx %d but only %d survived the kill — an acked batch was lost",
				w, ackedMax[w], durableMax[w])
		}
	}

	// Byte-identical recovery: replay the durable records into a fresh
	// in-memory reference, recover a daemon from the killed directory, and
	// compare re-snapshots. (The durable set may exceed the acked set — a
	// batch whose fsync completed but whose ack never reached the writer —
	// which is exactly why the reference replays the WAL, not the ack log.)
	ref := newTestServer(t, config{k: 4, budget: 48})
	for i, rec := range tail {
		if resp := doJSON(t, "POST", ref.URL+"/streams/gc/points", batch(rec.Points), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("reference replay of record %d: status %d", i, resp.StatusCode)
		}
	}
	d := newDurableServer(t, dir, config{k: 4, budget: 48},
		persist.Options{Fsync: persist.FsyncAlways, CompactEvery: -1})
	got := snapshotBytes(t, d.http.URL, "gc")
	want := snapshotBytes(t, ref.URL, "gc")
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered snapshot differs from WAL-order replay (%d vs %d bytes, %d durable records, %d acked)\nchild log:\n%s",
			len(got), len(want), len(tail), totalAcked, childLog.String())
	}
	t.Logf("killed with %d acked / %d durable batches across %d writers", totalAcked, len(tail), writers)
}

func jsonBody(points kcenter.Dataset) ([]byte, error) {
	return json.Marshal(batch(points))
}
