package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	const (
		goodID   = "0af7651916cd43dd8448eb211c80319c"
		goodSpan = "b7ad6b7169203331"
	)
	good := "00-" + goodID + "-" + goodSpan + "-01"
	for _, tc := range []struct {
		name    string
		header  string
		ok      bool
		sampled bool
	}{
		{"valid sampled", good, true, true},
		{"valid unsampled", "00-" + goodID + "-" + goodSpan + "-00", true, false},
		{"other flag bits ignored", "00-" + goodID + "-" + goodSpan + "-fe", true, false},
		{"empty", "", false, false},
		{"too short", good[:54], false, false},
		{"too long", good + "0", false, false},
		{"foreign version", "01-" + goodID + "-" + goodSpan + "-01", false, false},
		{"version ff", "ff-" + goodID + "-" + goodSpan + "-01", false, false},
		{"uppercase hex", "00-" + strings.ToUpper(goodID) + "-" + goodSpan + "-01", false, false},
		{"non-hex trace id", "00-" + strings.Replace(goodID, "a", "g", 1) + "-" + goodSpan + "-01", false, false},
		{"all-zero trace id", "00-" + strings.Repeat("0", 32) + "-" + goodSpan + "-01", false, false},
		{"all-zero span id", "00-" + goodID + "-" + strings.Repeat("0", 16) + "-01", false, false},
		{"wrong separators", strings.Replace(good, "-", "_", 1), false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id, parent, sampled, ok := parseTraceparent(tc.header)
			if ok != tc.ok {
				t.Fatalf("parseTraceparent(%q) ok = %v, want %v", tc.header, ok, tc.ok)
			}
			if !ok {
				if !id.isZero() || !parent.isZero() || sampled {
					t.Fatalf("rejected header leaked values: id=%v parent=%v sampled=%v", id, parent, sampled)
				}
				return
			}
			if id.String() != goodID {
				t.Errorf("trace ID %s, want %s", id, goodID)
			}
			if parent.String() != goodSpan {
				t.Errorf("parent span ID %s, want %s", parent, goodSpan)
			}
			if sampled != tc.sampled {
				t.Errorf("sampled = %v, want %v", sampled, tc.sampled)
			}
		})
	}
}

// TestMalformedTraceparentFallsBack: a malformed or foreign header must not
// poison the trace — the root starts a fresh local trace with a fresh ID.
func TestMalformedTraceparentFallsBack(t *testing.T) {
	tr := NewTracer(1, 8)
	for _, header := range []string{
		"garbage",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // foreign version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace ID
	} {
		_, root := tr.StartRoot(context.Background(), "GET", header)
		id := root.TraceID()
		if len(id) != 32 || strings.Contains(header, id) {
			t.Errorf("header %q: trace ID %q is not a fresh local ID", header, id)
		}
		root.End()
	}
	if got := len(tr.Recent()); got != 3 {
		t.Fatalf("retained %d traces, want 3 (sample rate 1)", got)
	}
}

// TestInboundTraceparentJoins: a valid inbound header is honored — same
// trace ID, the caller's span recorded as the remote parent, and its
// sampled flag inherited without consuming a local sampling slot.
func TestInboundTraceparentJoins(t *testing.T) {
	tr := NewTracer(1000, 8) // local sampler would reject nearly everything
	header := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	_, root := tr.StartRoot(context.Background(), "POST", header)
	if got := root.TraceID(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace ID %s does not join the inbound trace", got)
	}
	root.End()
	found := tr.Find("0af7651916cd43dd8448eb211c80319c")
	if found == nil {
		t.Fatal("inbound sampled flag did not force retention")
	}
	if d := found.Detail(); d.RemoteParent != "b7ad6b7169203331" {
		t.Fatalf("remote parent %q, want the inbound span ID", d.RemoteParent)
	}

	// The unsampled flag is inherited too: the trace completes unkept.
	_, root2 := tr.StartRoot(context.Background(), "POST",
		"00-1af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	root2.End()
	if tr.Find("1af7651916cd43dd8448eb211c80319c") != nil {
		t.Fatal("inbound unsampled trace was retained")
	}
}

// TestSamplingDeterminism: the head sampler is an atomic counter, so across
// any interleaving of goroutines EXACTLY one in N roots is sampled.
func TestSamplingDeterminism(t *testing.T) {
	const (
		every      = 4
		goroutines = 8
		perG       = 100
	)
	tr := NewTracer(every, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, root := tr.StartRoot(context.Background(), "GET", "")
				root.End()
			}
		}()
	}
	wg.Wait()
	want := goroutines * perG / every
	if got := len(tr.Recent()); got != want {
		t.Fatalf("sampled %d of %d traces, want exactly %d (1 in %d)", got, goroutines*perG, want, every)
	}
}

// TestRingEviction: the ring keeps the newest `buffer` traces, returned
// newest first; older ones are evicted in completion order.
func TestRingEviction(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 1; i <= 6; i++ {
		_, root := tr.StartRoot(context.Background(), fmt.Sprintf("t%d", i), "")
		root.End()
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(recent))
	}
	for i, want := range []string{"t6", "t5", "t4", "t3"} {
		if got := recent[i].Name(); got != want {
			t.Errorf("recent[%d] = %q, want %q (newest first)", i, got, want)
		}
	}
	if tr.Find(recent[0].id.String()) != recent[0] {
		t.Error("Find does not return the retained trace by ID")
	}
	if tr.Find(strings.Repeat("0", 32)) != nil {
		t.Error("Find invented a trace for an unknown ID")
	}
}

// TestSpanTreeGolden drives a scripted clock through a root with nested
// children and checks the reconstructed tree: structure, names, offsets and
// durations all exact.
func TestSpanTreeGolden(t *testing.T) {
	tr := NewTracer(1, 4)
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	clock := base
	tr.now = func() time.Time { return clock }

	ctx, root := tr.StartRoot(context.Background(), "POST", "") // t=0
	clock = base.Add(1 * time.Millisecond)
	dctx, decode := StartSpan(ctx, "decode") // t=1ms
	decode.SetAttr("proto", "json")
	clock = base.Add(3 * time.Millisecond)
	_, inner := StartSpan(dctx, "parse") // child of decode, t=3ms
	clock = base.Add(4 * time.Millisecond)
	inner.End() // 1ms
	clock = base.Add(5 * time.Millisecond)
	decode.End()                                                   // 4ms
	RecordSpan(ctx, "wal.wait", 2*time.Millisecond, "op", "batch") // ends t=5ms, starts t=3ms
	clock = base.Add(9 * time.Millisecond)
	root.SetName("POST /streams/{name}/points")
	root.End() // 9ms

	tc := tr.Find(root.TraceID())
	if tc == nil {
		t.Fatal("trace not retained")
	}
	d := tc.Detail()
	if d.Name != "POST /streams/{name}/points" {
		t.Errorf("trace name %q did not follow the root rename", d.Name)
	}
	if d.Duration != "9ms" || d.Spans != 4 {
		t.Errorf("summary duration=%s spans=%d, want 9ms and 4", d.Duration, d.Spans)
	}
	root1 := d.Root
	if root1 == nil || len(root1.Children) != 2 {
		t.Fatalf("root has %d children, want 2 (decode, wal.wait)", len(root1.Children))
	}
	dec := root1.Children[0]
	if dec.Name != "decode" || dec.Start != "1ms" || dec.Duration != "4ms" || dec.Attrs["proto"] != "json" {
		t.Errorf("decode node = %+v", dec)
	}
	if len(dec.Children) != 1 || dec.Children[0].Name != "parse" ||
		dec.Children[0].Start != "3ms" || dec.Children[0].Duration != "1ms" {
		t.Errorf("parse node = %+v", dec.Children)
	}
	wait := root1.Children[1]
	if wait.Name != "wal.wait" || wait.Start != "3ms" || wait.Duration != "2ms" || wait.Attrs["op"] != "batch" {
		t.Errorf("wal.wait node = %+v", wait)
	}
	if bd := root.Breakdown(); bd != "decode=4ms wal.wait=2ms" {
		t.Errorf("Breakdown() = %q, want \"decode=4ms wal.wait=2ms\"", bd)
	}
}

// TestConcurrentSpanRecording hammers one trace from many goroutines under
// -race: SetAttr, child spans, nested ends. The span count must respect the
// per-trace cap, with the overflow counted as dropped.
func TestConcurrentSpanRecording(t *testing.T) {
	tr := NewTracer(1, 2)
	ctx, root := tr.StartRoot(context.Background(), "GET", "")
	const goroutines = 16
	const perG = 40 // 16*40 + root = 641 > maxSpansPerTrace
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				cctx, sp := StartSpan(ctx, fmt.Sprintf("g%d.%d", g, i))
				sp.SetAttr("i", "x")
				RecordSpan(cctx, "leaf", time.Microsecond)
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	root.Force("test")
	root.End()
	sum := tr.Recent()[0].Summary()
	if sum.Spans != maxSpansPerTrace {
		t.Errorf("trace holds %d spans, want the %d cap", sum.Spans, maxSpansPerTrace)
	}
	wantDropped := 1 + goroutines*perG*2 - maxSpansPerTrace
	if sum.Dropped != wantDropped {
		t.Errorf("dropped %d spans, want %d", sum.Dropped, wantDropped)
	}
	// The tree still reconstructs: orphans of dropped parents hang off root.
	d := tr.Recent()[0].Detail()
	total := 0
	var count func(*SpanNode)
	count = func(n *SpanNode) {
		total++
		for _, c := range n.Children {
			count(c)
		}
	}
	count(d.Root)
	if total != maxSpansPerTrace {
		t.Errorf("tree holds %d nodes, want %d", total, maxSpansPerTrace)
	}
}

// TestNilSafety: a nil tracer (tracing disabled) and the nil spans it hands
// out must absorb every call.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, root := tr.StartRoot(context.Background(), "GET", "")
	if root != nil {
		t.Fatal("nil tracer returned a span")
	}
	_, bg := tr.StartBackground(context.Background(), "compact")
	tr.RecordBackground("flush", time.Millisecond)
	ctx2, child := StartSpan(ctx, "decode")
	RecordSpan(ctx2, "leaf", time.Millisecond)
	for _, sp := range []*Span{root, bg, child} {
		sp.SetName("x")
		sp.SetAttr("k", "v")
		sp.Force("slow")
		sp.End()
		if sp.TraceID() != "" || sp.Breakdown() != "" {
			t.Fatal("nil span leaked identity")
		}
	}
	if tr.Recent() != nil || tr.Find("x") != nil {
		t.Fatal("nil tracer retained traces")
	}
	if NewTracer(16, 0) != nil {
		t.Fatal("buffer 0 must disable tracing")
	}
}

// TestForcedCaptureOverridesSampling: an unsampled trace marked slow (or
// errored) is retained anyway; End is idempotent and keeps it once.
func TestForcedCaptureOverridesSampling(t *testing.T) {
	tr := NewTracer(1000, 8)
	// Counter slot 0 is the 1-in-1000 sample; burn it so the rest are unsampled.
	_, first := tr.StartRoot(context.Background(), "GET", "")
	first.End()
	_, skipped := tr.StartRoot(context.Background(), "GET", "")
	skipped.End()
	_, forced := tr.StartRoot(context.Background(), "GET", "")
	forced.Force("slow")
	forced.Force("error") // first reason wins
	forced.End()
	forced.End()
	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("retained %d traces, want the head sample and the forced one", len(recent))
	}
	if sum := recent[0].Summary(); sum.Forced != "slow" || sum.Sampled {
		t.Fatalf("forced trace summary = %+v", sum)
	}
	if tr.Find(skipped.TraceID()) != nil {
		t.Fatal("unsampled unforced trace was retained")
	}
}

// TestBackgroundTraces: StartBackground is always kept, RecordBackground is
// sampled at the tracer's rate so periodic work cannot flood the ring.
func TestBackgroundTraces(t *testing.T) {
	tr := NewTracer(10, 64)
	_, root := tr.StartBackground(context.Background(), "compact")
	root.SetAttr("stream", "s")
	root.End()
	if len(tr.Recent()) != 1 || tr.Recent()[0].Summary().Forced != "background" {
		t.Fatal("background trace not force-retained")
	}
	for i := 0; i < 40; i++ {
		tr.RecordBackground("wal.flush", time.Millisecond, "logs", "1")
	}
	kept := 0
	for _, tc := range tr.Recent() {
		if tc.Name() == "wal.flush" {
			kept++
		}
	}
	if kept != 4 {
		t.Fatalf("kept %d of 40 flush traces, want exactly 4 (1 in 10)", kept)
	}
}
