package engine

import (
	"fmt"
	"sort"
	"sync"

	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/obs"
	"coresetclustering/internal/persist"
	"coresetclustering/internal/sketch"
)

// Config carries the engine defaults applied to implicitly created streams.
type Config struct {
	K       int
	Z       int
	Budget  int
	Workers int
	Dist    string
	Fsync   string // fsync mode name, surfaced in durability stats
}

// Engine hosts the stream table and implements every daemon operation as a
// transport-agnostic method. The observability handles are plain fields so
// an embedder (or a benchmark) can strip instrumentation by nilling them:
// every recording site is nil-safe.
type Engine struct {
	Cfg     Config
	Store   *persist.Store // nil = in-memory only
	Logger  *obs.Logger    // nil-safe; nil drops everything
	Metrics *Metrics       // nil disables instrumentation entirely
	Tracer  *obs.Tracer    // nil disables tracing; every recording site is nil-safe

	mu      sync.RWMutex
	streams map[string]*Stream

	// failed records streams set aside after diverging from their journal
	// (at boot or mid-flight), keyed by name, until the name is reused.
	// Drives the degraded health answer and the stream-list status entries.
	failedMu sync.Mutex
	failed   map[string]string
}

// New builds an engine with normalised defaults. The caller wires Store,
// Logger, Metrics and Tracer afterwards (or leaves them nil).
func New(cfg Config) *Engine {
	if cfg.Budget <= 0 {
		cfg.Budget = 8 * (cfg.K + cfg.Z)
	}
	if cfg.Dist == "" {
		cfg.Dist = "euclidean"
	}
	if cfg.Fsync == "" {
		cfg.Fsync = persist.FsyncAlways.String()
	}
	return &Engine{
		Cfg:     cfg,
		streams: make(map[string]*Stream),
	}
}

// Lookup returns the named stream, if hosted.
func (e *Engine) Lookup(name string) (*Stream, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st, ok := e.streams[name]
	return st, ok
}

// StreamNames returns the live stream names, sorted.
func (e *Engine) StreamNames() []string {
	e.mu.RLock()
	names := make([]string, 0, len(e.streams))
	for name := range e.streams {
		names = append(names, name)
	}
	e.mu.RUnlock()
	sort.Strings(names)
	return names
}

// CreateParams is the parameter set of an implicit stream creation, already
// resolved against the engine defaults by the transport. Err defers a parse
// failure of the creation-only parameters (first of k, z, budget, window,
// windowDur in that order): it surfaces (as invalid_param) only if the
// request actually reaches the creation path — an existing stream ignores
// malformed ?k=/?z=/?budget= exactly as the pre-refactor daemon did. WinErr
// carries a parse failure of the window parameters alone, which an existing
// stream does reject (its flavour check must read them).
type CreateParams struct {
	K, Z    int
	Budget  int
	WinSize int64
	WinDur  int64
	Err     error
	WinErr  error
}

// newCore builds a streaming clusterer for the given parameters. The space
// name resolves to a full metric Space (batched kernels + surrogate), so
// ingest runs on the native hot path. Positive winSize/winDur select a
// sliding window; a positive z the outlier-aware kind (a stream that must be
// outlier-aware with z = 0 can only arrive as a restored sketch, which
// carries its own kind).
func (e *Engine) newCore(spaceName string, k, z, budget int, winSize, winDur int64) (*clusterer.Clusterer, error) {
	space, _, err := sketch.SpaceByName(spaceName)
	if err != nil {
		return nil, err
	}
	p := clusterer.Params{
		Kind: sketch.KindKCenter, Space: space, K: k, Z: z, Tau: budget, Workers: e.Cfg.Workers,
		WindowSize: winSize, WindowDuration: winDur,
	}
	if z > 0 {
		p.Kind, p.EpsHat = sketch.KindOutliers, clusterer.DefaultEpsHat
	}
	return clusterer.New(p)
}

// flavourMismatch rejects window parameters aimed at an existing
// insertion-only stream: silently dropping them would acknowledge ingest into
// a stream that never evicts, permanently locking the name to the wrong
// flavour. (WinSize/WinDur are set once at creation and never mutated, so
// reading them without the stream mutex is safe.)
func flavourMismatch(st *Stream, p CreateParams) error {
	if p.WinErr != nil {
		return wrapErr(CodeInvalidParam, p.WinErr)
	}
	if (p.WinSize > 0 || p.WinDur > 0) && st.WinSize == 0 && st.WinDur == 0 {
		return errf(CodeInvalidParam,
			"stream already exists as insertion-only; ?window=/?windowDur= cannot convert it (delete and recreate)")
	}
	return nil
}

// getOrCreate returns the named stream, creating it with the request's (or
// the engine's) parameters on first touch.
func (e *Engine) getOrCreate(name string, p CreateParams) (*Stream, error) {
	e.mu.RLock()
	st, ok := e.streams[name]
	e.mu.RUnlock()
	if ok {
		if err := flavourMismatch(st, p); err != nil {
			return nil, err
		}
		return st, nil
	}
	if p.Err != nil {
		return nil, wrapErr(CodeInvalidParam, p.Err)
	}
	if p.WinSize < 0 || p.WinDur < 0 {
		return nil, errf(CodeInvalidParam,
			"window bounds must be non-negative (window=%d windowDur=%d)", p.WinSize, p.WinDur)
	}
	budget := p.Budget
	if budget <= 0 {
		if p.K == e.Cfg.K && p.Z == e.Cfg.Z {
			budget = e.Cfg.Budget
		} else {
			budget = 8 * (p.K + p.Z)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.streams[name]; ok {
		// Lost the creation race; use the winner's stream (unless the window
		// parameters conflict with its flavour).
		if err := flavourMismatch(st, p); err != nil {
			return nil, err
		}
		return st, nil
	}
	core, err := e.newCore(e.Cfg.Dist, p.K, p.Z, budget, p.WinSize, p.WinDur)
	if err != nil {
		return nil, wrapErr(CodeInvalidParam, err)
	}
	st = newStream(core)
	if e.Store != nil {
		// Journal the creation before the name becomes visible. Holding e.mu
		// across the disk write serialises creation against a concurrent
		// DELETE of the same name (which tombstones the directory under
		// e.mu), so a re-create can never collide with a half-removed
		// directory. The cost — a couple of fsyncs under the engine lock —
		// is paid once per stream NAME, never on the steady-state ingest
		// path, which only takes the read lock.
		lg, err := e.Store.Create(name, streamMeta(st))
		if err != nil {
			return nil, wrapErr(CodeInternal, fmt.Errorf("%w: %v", ErrPersistFailed, err))
		}
		st.log.Store(lg)
	}
	st.publishLocked(e.Metrics)
	e.streams[name] = st
	e.ClearFailed(name)
	return st, nil
}

// streamMeta derives the journaled metadata from a stream's parameters.
func streamMeta(st *Stream) persist.Meta {
	return persist.Meta{
		K:              st.K,
		Z:              st.Z,
		Budget:         st.Budget,
		Space:          st.Space,
		WindowSize:     st.WinSize,
		WindowDuration: st.WinDur,
	}
}

// Delete drops the named stream and tombstones its durable state.
func (e *Engine) Delete(name string) error {
	e.mu.Lock()
	st, ok := e.streams[name]
	delete(e.streams, name)
	var rmErr error
	if ok {
		// Tombstone the stream's directory while still holding the engine
		// lock: creation of the same name also runs under e.mu, so a racing
		// re-create can never collide with the half-removed directory.
		// Taking st.Mu (engine->stream order, same as restore) makes the
		// delete wait for an in-flight append instead of yanking the journal
		// out from under it; callers that already hold a stale pointer see
		// gone and answer the conflict. The map entry itself is removed
		// above, so the per-stream mutex is garbage-collected with the
		// stream — the stream table cannot accumulate mutexes for deleted
		// names.
		st.Mu.Lock()
		st.gone.Store(true)
		if lg := st.log.Swap(nil); lg != nil {
			rmErr = lg.Remove()
		}
		st.Mu.Unlock()
	}
	e.mu.Unlock()
	if !ok {
		return errf(CodeUnknownStream, "unknown stream %q", name)
	}
	if rmErr != nil {
		return errf(CodeInternal, "stream dropped but its durable state could not be fully removed: %v", rmErr)
	}
	return nil
}

// MarkFailed records a stream set aside as failed, for health and listing.
func (e *Engine) MarkFailed(name, reason string) {
	e.failedMu.Lock()
	if e.failed == nil {
		e.failed = make(map[string]string)
	}
	e.failed[name] = reason
	e.failedMu.Unlock()
	if m := e.Metrics; m != nil {
		m.StreamsFailed.Add(1)
	}
}

// ClearFailed forgets a failed name once it is recreated or restored.
func (e *Engine) ClearFailed(name string) {
	e.failedMu.Lock()
	delete(e.failed, name)
	e.failedMu.Unlock()
}

// FailedStreams returns a point-in-time copy of the failed-stream table.
func (e *Engine) FailedStreams() map[string]string {
	e.failedMu.Lock()
	defer e.failedMu.Unlock()
	if len(e.failed) == 0 {
		return nil
	}
	out := make(map[string]string, len(e.failed))
	for k, v := range e.failed {
		out[k] = v
	}
	return out
}

// FailedCount reports how many streams are currently set aside as failed.
func (e *Engine) FailedCount() int {
	e.failedMu.Lock()
	defer e.failedMu.Unlock()
	return len(e.failed)
}
