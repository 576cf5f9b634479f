// Package benchgate is the protocol of every ratio gate, the BenchmarkGate*
// functions that `go test -p 1 -run XXX -bench Gate -benchtime 1x ./...` runs.
// A gate times its claim's two sides in one process as alternated pairs: a
// slow phase of a shared host hits both halves of a pair alike, where it skews
// a minimum or a mean over separate runs. Short sides pair best, so a gate
// times the smallest unit of its claim and lets the pair count grow.
package benchgate

import (
	"slices"
	"testing"
	"time"
)

// MedianRatio times num and den as at least 31 pairs and for at least a
// second, after one warm-up pair, with num first in even pairs and den first
// in odd ones. It reports the median per-pair ratio time(num)/time(den) as
// unit, with its quartiles, and fails b unless lo <= median <= hi.
func MedianRatio(b *testing.B, unit string, lo, hi float64, num, den func()) {
	b.Helper()
	timed := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0))
	}
	var ratios []float64
	for i, start := -1, time.Now(); i < 31 || time.Since(start) < time.Second; i++ {
		n, d := 0.0, 0.0
		if i%2 == 0 {
			n, d = timed(num), timed(den)
		} else {
			d, n = timed(den), timed(num)
		}
		if i >= 0 {
			ratios = append(ratios, n/d)
		}
	}
	slices.Sort(ratios)
	k := len(ratios)
	q1, med, q3 := ratios[k/4], ratios[k/2], ratios[3*k/4]
	b.ReportMetric(float64(k), "pairs")
	b.ReportMetric(q1, unit+"-q1")
	b.ReportMetric(med, unit)
	b.ReportMetric(q3, unit+"-q3")
	if med < lo || med > hi {
		b.Fatalf("median %s %.3f (quartiles %.3f-%.3f, %d pairs) is outside the gate [%g, %g]", unit, med, q1, q3, k, lo, hi)
	}
}
