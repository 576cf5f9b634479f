package router

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardConnectionReuse pins the router's keep-alive pool: fifty bursts of
// sixteen concurrent requests to one shard need sixteen connections, once.
// On http.DefaultTransport (two idle connections per host) fourteen of them
// were closed after every burst and dialled again for the next. The fake
// shard answers a burst only once all sixteen requests of it have arrived,
// so every burst really has sixteen in flight and the count is exact.
func TestShardConnectionReuse(t *testing.T) {
	const callers, rounds = 16, 50
	var (
		opened  atomic.Int64
		mu      sync.Mutex
		arrived int
		gate    = make(chan struct{})
	)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		g := gate
		if arrived++; arrived == callers {
			arrived, gate = 0, make(chan struct{})
			close(g)
		}
		mu.Unlock()
		<-g
		w.Write([]byte("ok"))
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	srv := newServer(config{shards: []string{ts.Listener.Addr().String()}})
	defer close(srv.closed)
	// A round is a burst: sixteen requests in flight at once, then none, so
	// between rounds every connection sits in the idle pool (or is closed, if
	// the pool is smaller than the burst).
	for i := 0; i < rounds; i++ {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := srv.sendShard(context.Background(), srv.shards[0],
					shardReq{method: http.MethodGet, path: "/healthz"}, nil)
				if err != nil || resp.status != http.StatusOK {
					t.Errorf("send: status %d err %v", resp.status, err)
				}
			}()
		}
		wg.Wait()
	}
	if got := opened.Load(); got != callers {
		t.Fatalf("%d connections opened for %d callers x %d rounds, want %d", got, callers, rounds, callers)
	}
}
