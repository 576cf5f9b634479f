package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the span tracer half of the observability core: zero
// dependencies, like the metrics half, and built for the same hot paths.
// A Tracer records one Trace per request (or background operation), each a
// flat list of Spans the debug surface reconstructs into a tree. Recording
// is cheap enough to run on every request — one small allocation per span
// under a per-trace mutex no other request contends on — because whether a
// trace is KEPT is decided only when its root span ends: head-sampled
// traces (a deterministic 1-in-N atomic counter, never wall-clock or
// math/rand, so the decision is reproducible under test and uniform under
// load) and forced traces (slow requests, 5xx responses, background
// operations) land in a bounded ring buffer; everything else is garbage the
// moment the handler returns.
//
// Trace identity is W3C trace-context compatible: 16-byte trace IDs, 8-byte
// span IDs, and an inbound `traceparent` header (version 00) is honored —
// the request joins the caller's trace, inherits its sampled flag, and the
// caller's span ID is kept as the remote parent — so a router fan-out
// stitches into one logical trace across daemons. A malformed or
// foreign-version header falls back to a fresh local trace.
//
// Timings are monotonic: a trace anchors one time.Time at its start and
// every span offset/duration is derived from Since against that anchor, so
// a wall-clock step never produces a negative stage.

// TraceID is a W3C-compatible 16-byte trace identifier.
type TraceID [16]byte

// String returns the canonical 32-hex-digit form.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// SpanID is a W3C-compatible 8-byte span identifier.
type SpanID [8]byte

// String returns the canonical 16-hex-digit form.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// maxSpansPerTrace bounds one trace's span list so a pathological handler
// (or a runaway loop instrumented by accident) cannot grow memory without
// bound; spans beyond the cap are counted, not recorded.
const maxSpansPerTrace = 256

// Tracer records traces and retains the kept ones in a fixed ring. A nil
// *Tracer is valid and records nothing — every method on Tracer, Trace and
// Span is nil-safe, so instrumentation sites need no guards.
type Tracer struct {
	sampleEvery int64
	seq         atomic.Int64
	now         func() time.Time // test seam; nil = real time

	mu    sync.Mutex
	ring  []*Trace
	next  int // ring write index
	count int // traces in the ring (== len(ring) once it wrapped)
}

// NewTracer returns a tracer head-sampling one in sampleEvery requests
// (values < 1 mean every request) and retaining up to buffer completed
// traces. A buffer < 1 disables tracing entirely: the returned Tracer is
// nil, which every recording site tolerates.
func NewTracer(sampleEvery, buffer int) *Tracer {
	if buffer < 1 {
		return nil
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{sampleEvery: int64(sampleEvery), ring: make([]*Trace, buffer)}
}

// clock returns the tracer's current time (the test seam, or real time).
func (t *Tracer) clock() time.Time {
	if t.now != nil {
		return t.now()
	}
	return time.Now()
}

// since measures monotonically from start per the tracer's clock.
func (t *Tracer) since(start time.Time) time.Duration {
	if t.now != nil {
		return t.now().Sub(start)
	}
	return time.Since(start)
}

// sampleNext consumes one slot of the deterministic head sampler: exactly
// one in every sampleEvery calls returns true, starting with the first.
func (t *Tracer) sampleNext() bool {
	return (t.seq.Add(1)-1)%t.sampleEvery == 0
}

// Trace is one request's (or background operation's) recording: identity,
// the sampling/forcing decision, and the flat span list. All mutation runs
// under the trace's own mutex, so concurrent child spans of one request are
// safe and distinct requests share nothing.
type Trace struct {
	tracer *Tracer
	id     TraceID
	remote SpanID // inbound traceparent's span ID; zero for local roots
	start  time.Time

	mu      sync.Mutex
	name    string
	sampled bool
	forced  string // first force reason; non-empty keeps the trace
	spans   []*Span
	nextID  uint64
	dropped int
	dur     time.Duration
	done    bool
}

// Span is one timed stage within a trace. Offsets and durations are
// relative to the trace's monotonic anchor.
type Span struct {
	trace  *Trace
	id     SpanID
	parent SpanID // zero for the root
	name   string
	start  time.Duration
	dur    time.Duration
	ended  bool
	attrs  []string // flat key, value pairs
}

// newSpanLocked appends a span to the trace; the caller holds tr.mu. Past
// the per-trace cap it records nothing and counts the drop.
func (tr *Trace) newSpanLocked(parent SpanID, name string) *Span {
	if len(tr.spans) >= maxSpansPerTrace {
		tr.dropped++
		return nil
	}
	tr.nextID++
	var id SpanID
	binary.BigEndian.PutUint64(id[:], tr.nextID)
	sp := &Span{trace: tr, id: id, parent: parent, name: name, start: tr.tracer.since(tr.start)}
	tr.spans = append(tr.spans, sp)
	return sp
}

// newTraceID returns a fresh random trace ID (never zero). If the system
// randomness source fails, a process-unique counter keeps IDs distinct.
func newTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err != nil || id.IsZero() {
		id[0] = 1
		binary.BigEndian.PutUint64(id[8:], reqIDCounter.Add(1))
	}
	return id
}

// parseTraceparent parses a W3C traceparent header
// (00-<32 hex trace id>-<16 hex span id>-<2 hex flags>). ok is false — and
// the caller starts a fresh trace — for anything malformed, for a foreign
// version, or for the invalid all-zero IDs; sampled is the header's
// sampled flag.
func parseTraceparent(s string) (id TraceID, parent SpanID, sampled, ok bool) {
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	if s[0] != '0' || s[1] != '0' { // only version 00 is understood
		return TraceID{}, SpanID{}, false, false
	}
	if !isLowerHex(s[3:35]) || !isLowerHex(s[36:52]) || !isLowerHex(s[53:55]) {
		return TraceID{}, SpanID{}, false, false
	}
	hex.Decode(id[:], []byte(s[3:35]))
	hex.Decode(parent[:], []byte(s[36:52]))
	var flags [1]byte
	hex.Decode(flags[:], []byte(s[53:55]))
	if id.IsZero() || parent.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return id, parent, flags[0]&0x01 != 0, true
}

// isLowerHex reports whether s is entirely lowercase hex digits (the W3C
// header grammar; uppercase is malformed by spec).
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// StartRoot begins a request trace and its root span. A valid inbound
// traceparent is honored: the trace joins the caller's ID, inherits the
// caller's sampled flag (without consuming a local sampling slot, so
// fan-outs do not skew the local rate), and keeps the caller's span ID as
// the remote parent. Otherwise the trace is fresh and the deterministic
// 1-in-N head sampler decides. The returned context carries the root span
// for StartSpan/RecordSpan downstream.
func (t *Tracer) StartRoot(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tr := &Trace{tracer: t, name: name, start: t.clock()}
	if id, parent, sampled, ok := parseTraceparent(traceparent); ok {
		tr.id, tr.remote, tr.sampled = id, parent, sampled
	} else {
		tr.id = newTraceID()
		tr.sampled = t.sampleNext()
	}
	root := tr.newSpanLocked(SpanID{}, name) // exclusive access: the trace is not shared yet
	return context.WithValue(ctx, spanCtxKey{}, root), root
}

// StartBackground begins a trace for a daemon-internal operation
// (compaction, boot recovery). Background traces are always kept — they
// are rare and each one is an answer to "what was the daemon doing".
func (t *Tracer) StartBackground(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	tr := &Trace{tracer: t, name: name, start: t.clock(), forced: "background"}
	tr.id = newTraceID()
	root := tr.newSpanLocked(SpanID{}, name)
	return context.WithValue(ctx, spanCtxKey{}, root), root
}

// RecordBackground records a completed single-span background trace ending
// now, for high-frequency periodic work (the WAL flusher) where a span
// hierarchy adds nothing. Unlike StartBackground it is head-sampled at the
// tracer's 1-in-N rate — a 100ms ticker would otherwise evict every
// request trace from the ring within seconds.
func (t *Tracer) RecordBackground(name string, d time.Duration, attrs ...string) {
	if t == nil || !t.sampleNext() {
		return
	}
	if d < 0 {
		d = 0
	}
	tr := &Trace{tracer: t, name: name, start: t.clock().Add(-d), sampled: true}
	tr.id = newTraceID()
	root := tr.newSpanLocked(SpanID{}, name)
	root.attrs = append(root.attrs, attrs...)
	root.dur, root.ended = d, true
	tr.dur, tr.done = d, true
	t.keep(tr)
}

// spanCtxKey carries the current *Span through a context.
type spanCtxKey struct{}

// spanFromContext returns the span the context carries, or nil.
func spanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpan begins a child span of the context's current span and returns a
// context carrying the child. Without a traced parent in ctx (tracing
// disabled, or an un-instrumented entry point) it returns ctx unchanged and
// a nil span, on which every method is a no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := spanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	tr := parent.trace
	tr.mu.Lock()
	sp := tr.newSpanLocked(parent.id, name)
	tr.mu.Unlock()
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// RecordSpan records an already-completed child span of the context's
// current span: it ends now and started d ago. This is the shape
// instrumentation seams want when the measured interval is only known after
// the fact (a group-commit waiter's enqueue-to-ack time).
func RecordSpan(ctx context.Context, name string, d time.Duration, attrs ...string) {
	parent := spanFromContext(ctx)
	if parent == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	tr := parent.trace
	tr.mu.Lock()
	sp := tr.newSpanLocked(parent.id, name)
	if sp != nil {
		if sp.start -= d; sp.start < 0 {
			sp.start = 0
		}
		sp.dur, sp.ended = d, true
		sp.attrs = append(sp.attrs, attrs...)
	}
	tr.mu.Unlock()
}

// SetName renames the span (the middleware names the root after routing,
// when the mux pattern is known). Renaming the root renames the trace.
func (sp *Span) SetName(name string) {
	if sp == nil {
		return
	}
	tr := sp.trace
	tr.mu.Lock()
	sp.name = name
	if sp.parent.IsZero() {
		tr.name = name
	}
	tr.mu.Unlock()
}

// SetAttr attaches a key/value annotation to the span.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.trace.mu.Lock()
	sp.attrs = append(sp.attrs, key, value)
	sp.trace.mu.Unlock()
}

// Force marks the span's trace kept regardless of the sampling decision,
// recording the first reason ("slow", "error", ...).
func (sp *Span) Force(reason string) {
	if sp == nil {
		return
	}
	tr := sp.trace
	tr.mu.Lock()
	if tr.forced == "" {
		tr.forced = reason
	}
	tr.mu.Unlock()
}

// End completes the span. Ending the root span completes the trace and, if
// it was sampled or forced, retains it in the tracer's ring; an unkept
// trace is garbage from here on. End is idempotent.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	tr := sp.trace
	tr.mu.Lock()
	if !sp.ended {
		sp.ended = true
		sp.dur = tr.tracer.since(tr.start) - sp.start
		if sp.dur < 0 {
			sp.dur = 0
		}
	}
	finished := false
	if sp.parent.IsZero() && !tr.done {
		tr.done = true
		tr.dur = sp.dur
		finished = tr.sampled || tr.forced != ""
	}
	tr.mu.Unlock()
	if finished {
		tr.tracer.keep(tr)
	}
}

// TraceID returns the hex trace ID of the span's trace ("" on nil).
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.trace.id.String()
}

// Traceparent renders the span as an outbound W3C traceparent header
// (00-<trace id>-<span id>-<flags>), the emitter half of parseTraceparent:
// a downstream daemon that honors the header joins this trace, with this
// span as the remote parent. The sampled flag propagates the trace's own
// keep decision (sampled or forced) so a fan-out is retained end to end or
// not at all. Returns "" on a nil span.
func (sp *Span) Traceparent() string {
	if sp == nil {
		return ""
	}
	tr := sp.trace
	tr.mu.Lock()
	kept := tr.sampled || tr.forced != ""
	tr.mu.Unlock()
	flags := "00"
	if kept {
		flags = "01"
	}
	return "00-" + tr.id.String() + "-" + sp.id.String() + "-" + flags
}

// Breakdown renders the durations of the span's ended direct children as
// "name=dur name=dur ..." in recording order — the per-stage attribution
// the slow-request log line carries.
func (sp *Span) Breakdown() string {
	if sp == nil {
		return ""
	}
	tr := sp.trace
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var b strings.Builder
	for _, child := range tr.spans {
		if child.parent != sp.id || !child.ended {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(child.name)
		b.WriteByte('=')
		b.WriteString(child.dur.String())
	}
	return b.String()
}

// keep pushes a completed trace into the ring, evicting the oldest.
func (t *Tracer) keep(tr *Trace) {
	t.mu.Lock()
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	t.mu.Unlock()
}

// Recent returns the retained traces, newest first.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, t.count)
	for i := 1; i <= t.count; i++ {
		out = append(out, t.ring[(t.next-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Find returns the retained trace with the given 32-hex-digit ID, or nil.
// When an ID was kept more than once (an inbound traceparent reused across
// requests), the newest trace wins.
func (t *Tracer) Find(idHex string) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 1; i <= t.count; i++ {
		tr := t.ring[(t.next-i+len(t.ring))%len(t.ring)]
		if tr.id.String() == idHex {
			return tr
		}
	}
	return nil
}

// ID returns the trace's 32-hex-digit identifier.
func (tr *Trace) ID() string { return tr.id.String() }

// Name returns the trace's display name (the root span's final name).
func (tr *Trace) Name() string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.name
}

// Duration returns the root span's duration (0 until the root ends).
func (tr *Trace) Duration() time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.dur
}

// TraceSummary is the list-view JSON shape of one retained trace.
type TraceSummary struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Duration string    `json:"duration"`
	Sampled  bool      `json:"sampled"`
	Forced   string    `json:"forced,omitempty"`
	Spans    int       `json:"spans"`
	Dropped  int       `json:"droppedSpans,omitempty"`
}

// Summary returns the trace's list-view shape.
func (tr *Trace) Summary() TraceSummary {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return TraceSummary{
		ID:       tr.id.String(),
		Name:     tr.name,
		Start:    tr.start,
		Duration: tr.dur.String(),
		Sampled:  tr.sampled,
		Forced:   tr.forced,
		Spans:    len(tr.spans),
		Dropped:  tr.dropped,
	}
}

// SpanNode is one node of the reconstructed span tree, JSON-shaped for the
// debug surface. Start is the offset from the trace start.
type SpanNode struct {
	ID       string            `json:"id"`
	Name     string            `json:"name"`
	Start    string            `json:"start"`
	Duration string            `json:"duration"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanNode       `json:"children,omitempty"`
}

// TraceDetail is the full JSON shape of one trace: summary plus span tree.
type TraceDetail struct {
	TraceSummary
	RemoteParent string    `json:"remoteParent,omitempty"`
	Root         *SpanNode `json:"root"`
}

// Detail returns the trace with its span tree reconstructed: children
// attach under their parent in recording order, and a span whose parent was
// dropped (past the per-trace cap) attaches under the root rather than
// disappearing.
func (tr *Trace) Detail() TraceDetail {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	d := TraceDetail{
		TraceSummary: TraceSummary{
			ID:       tr.id.String(),
			Name:     tr.name,
			Start:    tr.start,
			Duration: tr.dur.String(),
			Sampled:  tr.sampled,
			Forced:   tr.forced,
			Spans:    len(tr.spans),
			Dropped:  tr.dropped,
		},
	}
	if !tr.remote.IsZero() {
		d.RemoteParent = tr.remote.String()
	}
	if len(tr.spans) == 0 {
		return d
	}
	nodes := make(map[SpanID]*SpanNode, len(tr.spans))
	for _, sp := range tr.spans {
		n := &SpanNode{
			ID:       sp.id.String(),
			Name:     sp.name,
			Start:    sp.start.String(),
			Duration: sp.dur.String(),
		}
		if len(sp.attrs) > 0 {
			n.Attrs = make(map[string]string, len(sp.attrs)/2)
			for i := 0; i+1 < len(sp.attrs); i += 2 {
				n.Attrs[sp.attrs[i]] = sp.attrs[i+1]
			}
		}
		nodes[sp.id] = n
	}
	root := nodes[tr.spans[0].id]
	d.Root = root
	for _, sp := range tr.spans[1:] {
		parent, ok := nodes[sp.parent]
		if !ok || parent == nodes[sp.id] {
			parent = root // orphan: its parent was dropped past the span cap
		}
		parent.Children = append(parent.Children, nodes[sp.id])
	}
	return d
}
