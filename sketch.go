package kcenter

import (
	"errors"
	"fmt"

	"coresetclustering/internal/sketch"
)

// Sketch errors, re-exported from the codec so callers can branch on them
// with errors.Is. Every malformed input to RestoreStreamingKCenter,
// RestoreStreamingOutliers, MergeSketches or InspectSketch maps to one of
// these; the codec never panics.
var (
	// ErrSketchBadMagic: the bytes are not a sketch at all.
	ErrSketchBadMagic = sketch.ErrBadMagic
	// ErrSketchVersion: the sketch was written by an incompatible codec.
	ErrSketchVersion = sketch.ErrUnsupportedVersion
	// ErrSketchTruncated: the data ends before the declared payload does.
	ErrSketchTruncated = sketch.ErrTruncated
	// ErrSketchCorrupt: a structurally invalid field (non-finite values,
	// weight inconsistencies, budget violations, trailing bytes, ...).
	ErrSketchCorrupt = sketch.ErrCorrupt
	// ErrSketchUnknownDistance: the sketch names a distance this build does
	// not know, or Snapshot was asked to serialize a custom distance.
	ErrSketchUnknownDistance = sketch.ErrUnknownDistance
	// ErrSketchIncompatible: sketches that cannot be merged (different kind,
	// distance, parameters or dimensionality), or a sketch restored as the
	// wrong stream kind.
	ErrSketchIncompatible = sketch.ErrIncompatible
)

// ErrMergeIncompatible marks a MergeSketches failure caused by the sketches
// themselves being unmergeable — window sketches, or mismatched kind,
// distance, parameters or dimensionality — as opposed to bytes that are not
// a valid sketch at all. It always wraps the sketch-level cause, so
// errors.Is against both ErrMergeIncompatible and ErrSketchIncompatible
// holds; a coordinator can branch on it to report "these shards cannot be
// composed" distinctly from "this shard sent garbage".
var ErrMergeIncompatible = errors.New("kcenter: sketches are incompatible for merging")

// mergeIncompatibleError tags an incompatibility cause with
// ErrMergeIncompatible without altering its message: Error() renders the
// cause alone, so existing callers that surface the text see exactly the
// pre-typed wording.
type mergeIncompatibleError struct{ cause error }

func (e *mergeIncompatibleError) Error() string { return e.cause.Error() }

func (e *mergeIncompatibleError) Unwrap() error { return e.cause }

func (e *mergeIncompatibleError) Is(target error) bool { return target == ErrMergeIncompatible }

// MergeSketches unions two or more sketches built on independent shards of a
// stream and re-runs the doubling reduction so the merged sketch is back
// under the shared coreset budget — the paper's composable-coreset property
// as an operation on durable values. All sketches must agree on kind,
// distance, k, z, epsHat, budget and dimensionality (ErrSketchIncompatible
// otherwise).
//
// Determinism: the merge is fully sequential and independent of worker
// counts; its result is fixed by the argument order, and merging the same
// sketches twice yields byte-identical output. The merged sketch accounts for
// every original point exactly once (its weights sum to the total number of
// points observed across the shards).
func MergeSketches(sketches ...[]byte) ([]byte, error) {
	decoded := make([]*sketch.Sketch, len(sketches))
	for i, data := range sketches {
		if sketch.IsWindowSketch(data) {
			// Window sketches summarise different time ranges of different
			// streams; unioning their buckets has no coherent window
			// semantics, so the merge is refused rather than silently wrong.
			return nil, &mergeIncompatibleError{
				fmt.Errorf("sketch %d: %w: window sketches cannot be merged", i, ErrSketchIncompatible)}
		}
		s, err := sketch.Decode(data)
		if err != nil {
			return nil, typedMergeError(fmt.Errorf("sketch %d: %w", i, err))
		}
		decoded[i] = s
	}
	merged, err := sketch.Merge(decoded...)
	if err != nil {
		return nil, typedMergeError(err)
	}
	return sketch.Encode(merged)
}

// typedMergeError tags incompatibility failures with ErrMergeIncompatible
// and passes every other failure (corrupt bytes, truncation, ...) through
// untouched.
func typedMergeError(err error) error {
	if errors.Is(err, ErrSketchIncompatible) {
		return &mergeIncompatibleError{err}
	}
	return err
}

// SketchInfo summarises a sketch without restoring it.
type SketchInfo struct {
	// Outliers reports whether this is an outlier-aware sketch.
	Outliers bool
	// K is the number of centers extracted at query time.
	K int
	// Z is the number of outliers tolerated (0 unless Outliers).
	Z int
	// Budget is the coreset budget (tau) of the doubling algorithm.
	Budget int
	// Distance is the registered name of the distance function.
	Distance string
	// Observed is the number of stream points the sketch summarises.
	Observed int64
	// CoresetSize is the number of weighted points currently retained.
	CoresetSize int
	// Dimensions is the dimensionality of the points (0 if the sketch is
	// empty).
	Dimensions int
	// Window reports whether this is a sliding-window sketch (magic KCWN);
	// the remaining fields apply only when it is.
	Window bool
	// WindowSize is the count bound of a window sketch (0 = none).
	WindowSize int64
	// WindowDuration is the duration bound of a window sketch (0 = none).
	WindowDuration int64
	// LiveBuckets is the number of live buckets of a window sketch.
	LiveBuckets int
	// LivePoints is the number of stream points the live buckets summarise
	// (Observed counts the stream's whole lifetime, evicted points included).
	LivePoints int64
}

// InspectSketch decodes and validates a sketch — insertion-only (KCSK) or
// sliding-window (KCWN) — and reports its metadata. It is the cheap way to
// answer "what is this blob?" before deciding to restore or merge it.
func InspectSketch(data []byte) (*SketchInfo, error) {
	if sketch.IsWindowSketch(data) {
		ws, err := sketch.DecodeWindow(data)
		if err != nil {
			return nil, err
		}
		info := &SketchInfo{
			Outliers:       ws.Kind == sketch.KindOutliers,
			K:              ws.K,
			Z:              ws.Z,
			Budget:         ws.Tau,
			Distance:       sketch.DistanceName(ws.DistID),
			Observed:       ws.Seq,
			Window:         true,
			WindowSize:     ws.MaxCount,
			WindowDuration: ws.MaxAge,
			LiveBuckets:    len(ws.Buckets),
		}
		for _, b := range ws.Buckets {
			info.CoresetSize += len(b.Payload.Points)
			info.LivePoints += b.EndSeq - b.StartSeq
			if info.Dimensions == 0 {
				info.Dimensions = b.Payload.Dim()
			}
		}
		return info, nil
	}
	sk, err := sketch.Decode(data)
	if err != nil {
		return nil, err
	}
	return &SketchInfo{
		Outliers:    sk.Kind == sketch.KindOutliers,
		K:           sk.K,
		Z:           sk.Z,
		Budget:      sk.Tau,
		Distance:    sketch.DistanceName(sk.DistID),
		Observed:    sk.Processed,
		CoresetSize: len(sk.Points),
		Dimensions:  sk.Dim(),
	}, nil
}
