package router

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"coresetclustering/internal/benchgate"
	"coresetclustering/internal/metric"
	"coresetclustering/internal/server/httpapi"
)

// BenchmarkGateRouterFanout is the cluster fan-out gate (protocol in
// internal/benchgate): a 64-point binary batch sent through an in-process
// router over two shard daemons, each a child process, must take at most ten
// times as long as the same batch sent straight to one shard. The bound is a
// sanity floor, not a perf target: fan-out adds a hop and a partition pass by
// design.
func BenchmarkGateRouterFanout(b *testing.B) {
	shards := []*shardProc{startShard(b, ""), startShard(b, "")}
	ts, _ := newTestRouter(b, shards)
	f, err := metric.FlatFromDataset(clusteredPoints(64, 8, 1))
	if err != nil {
		b.Fatal(err)
	}
	body := httpapi.EncodeBinaryIngest(nil, f, nil)
	post := func(url string) func() {
		return func() {
			resp, err := http.Post(url, httpapi.BinaryContentType, bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, msg)
			}
		}
	}
	viaRouter := post(ts.URL + "/streams/viarouter/points")
	direct := post("http://" + shards[0].addr + "/streams/direct/points")
	benchgate.MedianRatio(b, "router/direct", 0, 10, viaRouter, direct)
}
