package trace

import (
	"testing"
	"time"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending: Summarize must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailP float64
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 100}, {1, 100}} {
		s := Summarize(ramp(c.n))
		if s.N != c.n || s.TailP != c.tailP {
			t.Errorf("n=%d: tail is p%g of %d, want p%g", c.n, s.TailP, s.N, c.tailP)
		}
		want := float64(c.n)
		if c.tailP < 100 {
			want = Percentile(rampAsc(c.n), c.tailP)
			if beyond := c.n - int(want); beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, c.tailP)
			}
		}
		if s.Tail != want {
			t.Errorf("n=%d: tail value %g, want %g", c.n, s.Tail, want)
		}
	}
	if s := Summarize(nil); s.N != 0 || s.P50 != 0 {
		t.Errorf("empty sample set summarised as %+v", s)
	}
}

func rampAsc(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// scriptedClock returns the given instants in turn.
func scriptedClock(offsetsNS ...int64) func() time.Time {
	base := time.Unix(1000, 0)
	i := 0
	return func() time.Time {
		t := base.Add(time.Duration(offsetsNS[i]))
		i++
		return t
	}
}

func TestRecorderAndFold(t *testing.T) {
	// origin, then start/end instants in call order.
	r := NewRecorder("w", scriptedClock(0,
		0,   // start root
		10,  // start a (child of root)
		20,  // start b (child of root), overlapping a
		30,  // end a   -> a = [10,30]
		50,  // end b   -> b = [20,50]
		60,  // start c (child of b's sibling space) = [60,70]
		70,  // end c
		100, // end root -> root = [0,100]
		100, // start open (never ended)
	))
	root := r.Start(0, "core.solve")
	a := r.Start(root, "gmm.run")
	b := r.Start(root, "gmm.run")
	if d := r.End(a); d != 20 {
		t.Fatalf("span a lasted %v, want 20ns", d)
	}
	r.End(b)
	c := r.Start(root, "metric.radius")
	r.End(c)
	r.End(root)
	r.Start(0, "never.ended")

	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d finished spans, want 4", len(spans))
	}
	if spans[1].Parent != root || spans[1].Workload != "w" || spans[1].StartNS != 10 || spans[1].EndNS != 30 {
		t.Fatalf("span a recorded as %+v", spans[1])
	}
	got := map[string]LayerTime{}
	for _, lt := range Fold(spans) {
		got[lt.Name] = lt
	}
	// Children cover [10,50] and [60,70] of the root: 50 of its 100 ns.
	if lt := got["core.solve"]; lt.Calls != 1 || lt.Busy != 100 || lt.Self != 50 {
		t.Errorf("root folded to %+v, want busy 100 self 50", lt)
	}
	if lt := got["gmm.run"]; lt.Calls != 2 || lt.Busy != 50 || lt.Self != 50 {
		t.Errorf("gmm.run folded to %+v, want 2 calls busy 50 self 50", lt)
	}
	if lt := got["metric.radius"]; lt.Busy != 10 || lt.Self != 10 {
		t.Errorf("metric.radius folded to %+v", lt)
	}
}

func TestSummarizeSegments(t *testing.T) {
	for _, c := range []struct{ n, parts int }{{39, 1}, {79, 1}, {80, 2}, {399, 9}, {400, 10}, {8000, 10}} {
		if got := Parts(c.n); got != c.parts {
			t.Errorf("Parts(%d) = %d, want %d", c.n, got, c.parts)
		}
	}
	// 1000 samples: ten parts of 100, each a ramp 1..100 except the third,
	// which carries a stall in its tail.
	var s []float64
	for part := 0; part < 10; part++ {
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if part == 2 && i > 70 {
				v = 1e6
			}
			s = append(s, v)
		}
	}
	got := SummarizeSegments(s)
	if got.P50 != 50 || got.P75 != 75 {
		t.Errorf("segmented summary %+v, want p50 50 and p75 75: the stalled part must not move them", got)
	}
	if whole := Summarize(s); got.N != 1000 || got.TailP != 99 || got.Tail != 1e6 || got.Tail != whole.Tail || whole.P75 != 76 {
		t.Errorf("the displayed tail must be the whole run's and show the stall: %+v vs %+v", got, whole)
	}
	if got := MidMean([]float64{9, 1, 1e9, 3, 5, 7, -1e9, 11}); got != 6 {
		t.Errorf("midmean of eight values with two dropped from each end = %g, want 6", got)
	}
	if got := MidMean([]float64{4, 2, 9}); got != 5 {
		t.Errorf("midmean of three values = %g, want their mean 5", got)
	}
	// Too few samples to cut: identical to Summarize.
	if a, b := SummarizeSegments(ramp(79)), Summarize(ramp(79)); a != b {
		t.Errorf("79 samples: segmented %+v, plain %+v", a, b)
	}
}
