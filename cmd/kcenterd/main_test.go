package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSplitRole(t *testing.T) {
	for _, tc := range []struct {
		args []string
		role string
		rest []string
	}{
		{[]string{"-role=router", "-addr", ":1"}, "router", []string{"-addr", ":1"}},
		{[]string{"-addr", ":1", "-role", "shard", "-k", "3"}, "shard", []string{"-addr", ":1", "-k", "3"}},
		{[]string{"--role", "router", "-shards", "a:1"}, "router", []string{"-shards", "a:1"}},
		{[]string{"--role=router"}, "router", []string{}},
		{[]string{"-k", "3"}, "", []string{"-k", "3"}},
	} {
		role, rest, err := splitRole(tc.args)
		if err != nil || role != tc.role || !reflect.DeepEqual(rest, tc.rest) {
			t.Errorf("splitRole(%q) = %q, %q, %v; want %q, %q", tc.args, role, rest, err, tc.role, tc.rest)
		}
	}
	if _, _, err := splitRole([]string{"-k", "3", "-role"}); err == nil {
		t.Error("splitRole accepted -role without an argument")
	}
	err := run(context.Background(), []string{"-role=coordinator"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown -role") {
		t.Errorf("run with an unknown role: %v, want an unknown -role error", err)
	}
}

// freeAddr reserves a loopback port and releases it for the daemon to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestRunBootsEachRole boots both roles through run() with the flag sets the
// benchmark harness passes, and checks the lifecycle its daemon workloads
// depend on: /healthz answers, /metrics carries the role's HTTP series, the
// debug surface answers on -debug-addr only, and cancelling the context shuts
// the role down cleanly.
func TestRunBootsEachRole(t *testing.T) {
	shardAddr := freeAddr(t)
	for _, role := range []struct {
		name   string
		addr   string
		args   []string
		family string
	}{
		{"shard", shardAddr, []string{"-k", "4", "-budget", "64", "-persist-dir", t.TempDir(),
			"-fsync", "always", "-log-level", "warn"}, "kcenterd_http_requests_total"},
		{"router", freeAddr(t), []string{"-role=router", "-shards", shardAddr, "-log-level", "warn"},
			"kcenterd_router_http_requests_total"},
	} {
		debugAddr := freeAddr(t)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		args := append(role.args, "-addr", role.addr, "-debug-addr", debugAddr)
		go func() { done <- run(ctx, args, io.Discard) }()

		base := "http://" + role.addr
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if status, _ := get(t, base+"/healthz"); status == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				cancel()
				t.Fatalf("%s: /healthz never answered 200", role.name)
			}
		}
		if _, metrics := get(t, base+"/metrics"); !strings.Contains(metrics, "\n"+role.family+"{") {
			t.Errorf("%s: /metrics lacks %s", role.name, role.family)
		}
		if status, _ := get(t, "http://"+debugAddr+"/debug/traces"); status != http.StatusOK {
			t.Errorf("%s: /debug/traces on -debug-addr: status %d, want 200", role.name, status)
		}
		if status, _ := get(t, base+"/debug/traces"); status != http.StatusNotFound {
			t.Errorf("%s: /debug/traces on -addr: status %d, want 404", role.name, status)
		}

		// The shard keeps serving the router's probes until the router is
		// down: cancel the router first, the shard last.
		if role.name == "shard" {
			defer func() { stop(t, role.name, cancel, done) }()
		} else {
			stop(t, role.name, cancel, done)
		}
	}
}

func stop(t *testing.T, role string, cancel context.CancelFunc, done <-chan error) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: run returned %v after cancel, want nil", role, err)
		}
	case <-time.After(10 * time.Second):
		t.Errorf("%s: run did not return within 10 s of cancel", role)
	}
}
