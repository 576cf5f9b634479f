package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"coresetclustering/internal/persist"
)

// TestMain doubles as the child-process entry point of the kill-and-recover
// test: with KCENTERD_CHILD=1 the test binary becomes a real kcenterd, so
// SIGKILL hits an actual daemon process (OS buffers, fsync and all), not a
// goroutine that a graceful shutdown path could sneak into.
func TestMain(m *testing.M) {
	if os.Getenv("KCENTERD_CHILD") == "1" {
		if err := Run(context.Background(), strings.Fields(os.Getenv("KCENTERD_ARGS")), os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "kcenterd-child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// killRecoverOp is one request of the deterministic schedule the parent
// replays against both the victim daemon and the uninterrupted reference.
type killRecoverOp struct {
	path string // URL path + query
	body ingestRequest
	adv  *advanceRequest
}

// killRecoverSchedule interleaves insertion-only batches, timestamped window
// batches and clock advances.
func killRecoverSchedule(n int) []killRecoverOp {
	ops := make([]killRecoverOp, 0, n)
	ts := int64(0)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0, 1:
			ops = append(ops, killRecoverOp{
				path: "/streams/ins/points",
				body: batch(blobs(25, 3, int64(i))),
			})
		case 2:
			req := batch(blobs(15, 2, int64(1000+i)))
			req.Timestamps = make([]int64, len(req.Points))
			for j := range req.Timestamps {
				ts += int64(j % 3)
				req.Timestamps[j] = ts
			}
			ops = append(ops, killRecoverOp{
				path: "/streams/win/points?window=60&windowDur=40",
				body: req,
			})
		default:
			ts += 5
			ops = append(ops, killRecoverOp{path: "/streams/win/advance", adv: &advanceRequest{To: ts}})
		}
	}
	return ops
}

func postOp(baseURL string, op killRecoverOp) (int, error) {
	var payload any = op.body
	if op.adv != nil {
		payload = op.adv
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(baseURL+op.path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// TestKillRecoverByteIdentical is the acceptance test of the durability
// engine: a real daemon process is SIGKILLed at an arbitrary ingest-batch
// boundary, a new daemon recovers from the same -persist-dir, and every
// stream's re-snapshot must be byte-identical to an uninterrupted run over
// the acknowledged prefix — for the insertion-only AND the windowed stream.
func TestKillRecoverByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	const totalOps = 16
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			killAfter := 2 + rng.Intn(totalOps-2) // an arbitrary batch boundary
			dir := t.TempDir()

			// Start the victim daemon as a real process.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			child := exec.Command(os.Args[0])
			child.Env = append(os.Environ(),
				"KCENTERD_CHILD=1",
				"KCENTERD_ARGS=-addr "+addr+" -k 4 -budget 48 -persist-dir "+dir+" -fsync always -compact-every 5",
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

			// Drive the schedule; SIGKILL right after acknowledgement
			// killAfter — every acknowledged request must survive.
			ops := killRecoverSchedule(totalOps)
			for i := 0; i < killAfter; i++ {
				status, err := postOp("http://"+addr, ops[i])
				if err != nil {
					t.Fatalf("op %d: %v\nchild log:\n%s", i, err, childLog.String())
				}
				if status != http.StatusOK {
					t.Fatalf("op %d: status %d\nchild log:\n%s", i, status, childLog.String())
				}
			}
			if err := child.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
				t.Fatal(err)
			}
			child.Wait()
			killed = true

			// Uninterrupted reference over the acknowledged prefix.
			ref := newTestServer(t, config{k: 4, budget: 48})
			for i := 0; i < killAfter; i++ {
				if status, err := postOp(ref.URL, ops[i]); err != nil || status != http.StatusOK {
					t.Fatalf("reference op %d: status %d err %v", i, status, err)
				}
			}

			// Recover in-process from the same directory (same boot sequence
			// as run()) and compare re-snapshots byte for byte.
			d := newDurableServer(t, dir, config{k: 4, budget: 48},
				persist.Options{Fsync: persist.FsyncAlways, CompactEvery: 5})
			for _, name := range []string{"ins", "win"} {
				if !streamExists(t, ref.URL, name) {
					if streamExists(t, d.http.URL, name) {
						t.Fatalf("stream %q exists after recovery but not in the reference", name)
					}
					continue
				}
				got := snapshotBytes(t, d.http.URL, name)
				want := snapshotBytes(t, ref.URL, name)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d, kill after %d/%d: stream %q re-snapshot differs (%d vs %d bytes)\nchild log:\n%s",
						seed, killAfter, totalOps, name, len(got), len(want), childLog.String())
				}
			}
		})
	}
}

func waitHealthy(t *testing.T, baseURL string, timeout time.Duration, childLog *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon not healthy after %v\nchild log:\n%s", timeout, childLog.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func streamExists(t *testing.T, baseURL, name string) bool {
	t.Helper()
	resp, err := http.Get(baseURL + "/streams/" + name + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
