package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"coresetclustering/bench/gen"
)

// httpClient is shared by every load goroutine; each goroutine has at most
// one request in flight, so it holds one keep-alive connection per goroutine.
var httpClient = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute},
	Timeout:   30 * time.Second,
}

// do sends one request and returns the status and body. header holds
// alternating names and values.
func do(method, url string, body []byte, header ...string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// expect200 is do for calls whose failure aborts the run.
func expect200(method, url string, body []byte, header ...string) ([]byte, error) {
	status, out, err := do(method, url, body, header...)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, status, bytes.TrimSpace(out))
	}
	return out, nil
}

// ingest posts one batch and reports whether it was acknowledged.
func ingest(url string, body []byte, asJSON bool, header ...string) bool {
	ct := gen.ContentTypeKCFL
	if asJSON {
		ct = "application/json"
	}
	status, _, err := do(http.MethodPost, url, body, append([]string{"Content-Type", ct}, header...)...)
	return err == nil && status == http.StatusOK
}

// encode renders a batch in the workload's wire format.
func encode(dst []byte, coords []float64, asJSON bool) []byte {
	if asJSON {
		return gen.AppendJSON(dst, coords)
	}
	return gen.AppendKCFL(dst, coords)
}

// streamStats is the part of a shard's stats/centers payload the harness reads.
type streamStats struct {
	Observed      int64       `json:"observed"`
	WorkingMemory int         `json:"workingMemory"`
	Version       int64       `json:"version"`
	Centers       [][]float64 `json:"centers"`
	Cache         struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

func getStats(url string) (streamStats, error) {
	var st streamStats
	body, err := expect200(http.MethodGet, url, nil)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// scrape fetches a Prometheus text page and returns the sum of every sample
// of the named series (labels ignored).
func scrape(url, series string) (float64, error) {
	body, err := expect200(http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		rest := line[len(series):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("series %s: %v", series, err)
		}
		sum += v
	}
	return sum, nil
}

// loopStats is what one open-loop generator measured.
type loopStats struct {
	latMS     []float64       // latency of each op that succeeded, from its due time
	done      []time.Duration // when each of those ops completed, since start
	failed    int
	lateMaxMS float64 // the latest the generator ever sent an op after it fell due
}

// openLoop runs count operations on a fixed schedule, op i falling due at
// start + i*period, from one goroutine with one request in flight. Each
// latency runs from the op's due time, so a stall charges the ops queued
// behind it. stop, when non-nil, ends the schedule early once closed.
func openLoop(start time.Time, period time.Duration, count int, stop <-chan struct{}, op func(i int) bool) loopStats {
	var ls loopStats
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			if stop == nil {
				time.Sleep(wait)
			} else {
				select {
				case <-stop:
					return ls
				case <-time.After(wait):
				}
			}
		} else if stop != nil {
			select {
			case <-stop:
				return ls
			default:
			}
		}
		ls.lateMaxMS = max(ls.lateMaxMS, time.Since(due).Seconds()*1e3)
		if op(i) {
			end := time.Now()
			ls.latMS = append(ls.latMS, end.Sub(due).Seconds()*1e3)
			ls.done = append(ls.done, end.Sub(start))
		} else {
			ls.failed++
		}
	}
	return ls
}
