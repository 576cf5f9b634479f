package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	kcenter "coresetclustering"
	"coresetclustering/internal/clusterer"
	"coresetclustering/internal/persist"
)

// QueryView is the immutable published read side of a stream: a point-in-time
// clone of the clusterer plus the scalar stats that describe it, swapped in
// atomically after every acknowledged mutation. Readers answer from the
// newest view without ever taking the stream's ingest mutex, so a query
// observes the state exactly as of an acknowledged batch boundary (snapshot
// isolation) and never stalls behind an in-flight append, fsync or
// compaction.
//
// Extraction and serialization are memoised per view under the view's own
// mutex (the clone's query paths share internal memos, so concurrent readers
// of ONE view serialise on that short critical section — readers of different
// views, and readers vs the writer, share nothing). A repeated query at an
// unchanged version is therefore a cache hit, byte-identical to the first
// answer; publishing a new view is the whole invalidation story.
type QueryView struct {
	core    *clusterer.Clusterer
	Version int64  // mutations applied in-process when this view was published
	WalSeq  uint64 // newest journaled sequence folded into the view (0 without a log)

	Observed      int64
	WorkingMemory int
	Dim           int
	Window        *WindowStats // nil for insertion-only streams

	mu          sync.Mutex
	centers     kcenter.Dataset
	centersErr  error
	centersDone bool
	snap        []byte
	snapErr     error
	snapDone    bool

	tagOnce sync.Once
	snapTag string // SketchTag(snap), filled by the first SnapshotTag
}

// Centers returns the view's extraction with the stream's own (k, z),
// memoised; hit reports whether the cache already held it.
func (v *QueryView) Centers() (centers kcenter.Dataset, hit bool, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.centersDone {
		v.centers, v.centersErr = v.core.Centers()
		v.centersDone = true
		return v.centers, false, v.centersErr
	}
	return v.centers, true, v.centersErr
}

// Snapshot returns the view's serialized sketch, memoised; hit reports
// whether the cache already held it.
func (v *QueryView) Snapshot() (snap []byte, hit bool, err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.snapDone {
		v.snap, v.snapErr = v.core.Snapshot()
		v.snapDone = true
		return v.snap, false, v.snapErr
	}
	return v.snap, true, v.snapErr
}

// SnapshotTag is Snapshot plus the sketch's validator (see SketchTag), hashed
// on first request and memoised beside the bytes: one hash per pulled
// version, none for views nobody pulls (compaction takes Snapshot alone), and
// outside the view mutex, so extraction readers never wait on a hash.
func (v *QueryView) SnapshotTag() (snap []byte, tag string, hit bool, err error) {
	snap, hit, err = v.Snapshot()
	if err != nil {
		return nil, "", hit, err
	}
	v.tagOnce.Do(func() { v.snapTag = SketchTag(snap) })
	return snap, v.snapTag, hit, nil
}

// SketchTag is the strong validator of a serialized sketch: the first 128
// bits of its SHA-256, in hex. It depends on the bytes alone — no process
// counter, clock or name — so equal tags mean equal sketches across restarts,
// recoveries and daemons, which is what lets a router skip re-pulling and
// re-merging a shard whose tag it already holds.
func SketchTag(sketch []byte) string {
	sum := sha256.Sum256(sketch)
	return hex.EncodeToString(sum[:16])
}

// Stream is one hosted stream, split into a mutable ingest side and an
// immutable published read side. Mu serialises mutations only (the
// clusterers are not safe for concurrent use): ingest and advance append
// under Mu, bump version, and publish a fresh QueryView. Readers load the
// view pointer and never touch Mu. gone flips when the stream is deleted or
// replaced by a restore; failed flips when an applied batch diverged from the
// journal — either way a caller that looked the stream up just before the
// swap fails loudly instead of acknowledging a write into an orphaned object.
type Stream struct {
	Mu      sync.Mutex
	core    *clusterer.Clusterer // mutable ingest side; only touched under Mu
	version int64                // mutations applied in-process; under Mu

	// Stream parameters, immutable after creation: safe to read lock-free.
	K, Z    int
	Budget  int
	Space   string
	WinSize int64 // count window (0 = none)
	WinDur  int64 // duration window (0 = none)

	view   atomic.Pointer[QueryView]
	gone   atomic.Bool
	failed atomic.Bool

	// log is the stream's durability handle (nil without a store); recovery
	// carries the boot-time recovery stats of a recovered stream, and
	// compacting guards the single in-flight background compaction.
	log        atomic.Pointer[persist.Log]
	recovery   *persist.RecoveryStats
	compacting atomic.Bool

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// Last published lifetime eviction counters, for per-publish deltas into
	// the daemon metrics; under Mu.
	lastEvictedBuckets int64
	lastEvictedPoints  int64
}

// View returns the newest published query view; it never blocks on Mu.
func (st *Stream) View() *QueryView { return st.view.Load() }

// newStream wraps a clusterer — fresh, restored or recovered — as a hosted
// stream; every parameter the stream reports is read off the clusterer.
func newStream(core *clusterer.Clusterer) *Stream {
	st := &Stream{core: core, K: core.K(), Z: core.Z(), Budget: core.Tau(), Space: core.Space().Name()}
	if w := core.Window(); w != nil {
		st.WinSize, st.WinDur = w.MaxCount(), w.MaxAge()
	}
	return st
}

// publishLocked snapshots the ingest side into a fresh immutable QueryView
// (a clone: O(budget) for an insertion-only stream, copy-on-write bucket
// sharing for a window) and swaps it in for readers, crediting the publish
// (and, for window streams, the evictions since the last publish) to the
// daemon metrics.
// Caller holds st.Mu (or has exclusive access during construction); m may be
// nil for an uninstrumented engine.
func (st *Stream) publishLocked(m *Metrics) {
	v := &QueryView{
		core:          st.core.Clone(),
		Version:       st.version,
		Observed:      st.core.Processed(),
		WorkingMemory: st.core.WorkingMemory(),
		Dim:           st.core.Dim(),
	}
	if w := st.core.Window(); w != nil {
		v.Window = &WindowStats{
			Size:        st.WinSize,
			Duration:    st.WinDur,
			LiveBuckets: w.LiveBuckets(),
			LivePoints:  w.LivePoints(),
		}
		eb, ep := w.EvictedBuckets(), w.EvictedPoints()
		if m != nil {
			m.EvictedBuckets.Add(eb - st.lastEvictedBuckets)
			m.EvictedPoints.Add(ep - st.lastEvictedPoints)
		}
		st.lastEvictedBuckets, st.lastEvictedPoints = eb, ep
	}
	if lg := st.log.Load(); lg != nil {
		v.WalSeq = lg.LastSeq()
	}
	st.view.Store(v)
	if m != nil {
		m.ViewPublishes.Add(1)
	}
}

// gate rejects requests that raced a delete, restore or failure of the
// stream. Callers hold st.Mu (writers) or nothing at all (readers — the flags
// are atomic and only ever flip one way).
func (st *Stream) gate() error {
	if st.failed.Load() {
		return wrapErr(CodeStreamFailed, ErrFailed)
	}
	if st.gone.Load() {
		return wrapErr(CodeStreamGone, ErrGone)
	}
	return nil
}
