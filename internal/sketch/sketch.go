// Package sketch makes the coreset state of the streaming algorithms a
// first-class, durable, mergeable value. A Sketch captures the complete
// doubling-algorithm state of a streaming clusterer (internal/clusterer) —
// budget, lower bound phi, processed count, and the weighted coreset points —
// plus the kind of extraction the clusterer runs, its query-time parameters
// (k, z, epsHat) and the identity of the distance function, so that a sketch
// is fully self-describing.
//
// Sketches serve the paper's composability property operationally: shards of
// a stream can be summarised independently, snapshotted into compact byte
// strings, shipped across machines, and merged; the merged sketch is still an
// arbitrarily good summary of the union of the shards (the merge re-runs the
// doubling reduction under the original budget). Encode/Decode implement a
// versioned, strictly validated binary codec; Merge implements the union.
package sketch

import (
	"errors"
	"fmt"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/streaming"
)

// Typed decode/merge errors. Decode never panics: every malformed input maps
// to one of these (possibly wrapped with positional detail).
var (
	// ErrBadMagic means the data does not start with the sketch magic bytes —
	// it is not a sketch at all.
	ErrBadMagic = errors.New("sketch: bad magic (not a sketch)")
	// ErrUnsupportedVersion means the sketch was written by an incompatible
	// (newer) codec version.
	ErrUnsupportedVersion = errors.New("sketch: unsupported codec version")
	// ErrTruncated means the data ends before the declared payload does.
	ErrTruncated = errors.New("sketch: truncated data")
	// ErrCorrupt means a structurally invalid field: unknown kind, a point no
	// stream admits, NaN/Inf phi, non-positive weight, weight/processed
	// mismatch, budget violation, or trailing garbage.
	ErrCorrupt = errors.New("sketch: corrupt data")
	// ErrUnknownDistance means the distance identifier is not one of the
	// registered built-in distances (or, on encode, the stream uses a custom
	// distance function that cannot be serialized).
	ErrUnknownDistance = errors.New("sketch: unknown distance")
	// ErrIncompatible means two sketches cannot be merged or a sketch cannot
	// be restored as the requested stream kind: different kind, distance,
	// k/z/budget parameters, or point dimensionality.
	ErrIncompatible = errors.New("sketch: incompatible sketches")
)

// Kind discriminates the two extractions a streaming clusterer can run on its
// coreset at query time, and so the two kinds of sketch. It is a parameter of
// the clusterer in its own right, independent of z and of whether the stream
// is windowed.
type Kind uint8

const (
	// KindKCenter is a plain k-center stream: GMM on the coreset (the paper's
	// CoresetStream).
	KindKCenter Kind = 1
	// KindOutliers is a k-center-with-z-outliers stream: the weighted
	// OutliersCluster radius search on the coreset, also when z = 0 (the
	// paper's CoresetOutliers).
	KindOutliers Kind = 2
)

func (k Kind) valid() bool { return k == KindKCenter || k == KindOutliers }

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindKCenter:
		return "k-center"
	case KindOutliers:
		return "k-center-with-outliers"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Sketch is the decoded, in-memory form of a serialized coreset sketch.
type Sketch struct {
	// Kind says whether this is a plain or an outlier-aware stream.
	Kind Kind
	// DistID identifies the distance function (see the registry below).
	DistID uint8
	// K is the number of centers extracted at query time.
	K int
	// Z is the number of outliers tolerated (0 for KindKCenter).
	Z int
	// EpsHat is the slack of the outlier radius search (0 for KindKCenter).
	EpsHat float64
	// Tau is the coreset budget of the doubling algorithm.
	Tau int
	// Phi is the doubling algorithm's lower bound on r*_tau.
	Phi float64
	// Processed is the number of stream points summarised by the sketch.
	Processed int64
	// Initialized reports whether the doubling algorithm has left its
	// buffering phase; when false, Points are the raw buffered prefix with
	// unit weights.
	Initialized bool
	// Points is the weighted coreset (or unit-weight buffer).
	Points metric.WeightedSet
}

// Dim returns the dimensionality of the sketch's points (0 if it is empty).
func (s *Sketch) Dim() int {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[0].P.Dim()
}

// State converts the sketch's doubling fields into a streaming.DoublingState
// over the same Points (no copy: restoring takes its own headers and only
// reads the coordinates).
func (s *Sketch) State() streaming.DoublingState {
	return streaming.DoublingState{
		Tau:         s.Tau,
		Phi:         s.Phi,
		Processed:   s.Processed,
		Initialized: s.Initialized,
		Points:      s.Points,
	}
}

// FromState builds a sketch over a doubling state's Points (no copy) plus the
// stream's query-time parameters.
func FromState(kind Kind, distID uint8, k, z int, epsHat float64, st streaming.DoublingState) *Sketch {
	return &Sketch{
		Kind:        kind,
		DistID:      distID,
		K:           k,
		Z:           z,
		EpsHat:      epsHat,
		Tau:         st.Tau,
		Phi:         st.Phi,
		Processed:   st.Processed,
		Initialized: st.Initialized,
		Points:      st.Points,
	}
}

// Space resolves the sketch's metric space: decoding a sketch yields the
// full batched-kernel substrate, not just a scalar distance function, so
// restored streams run on the native hot paths.
func (s *Sketch) Space() (metric.Space, error) { return SpaceByID(s.DistID) }

// wireSpace is one entry of the registry: a wire identifier and the built-in
// metric space it stands for. Only the built-in spaces are serializable: a
// sketch must be reconstructible on a machine that never saw the originating
// process, so closures cannot be carried.
type wireSpace struct {
	id    uint8
	space metric.Space
}

// The registry. Identifiers are part of the wire format: never renumber,
// only append. Names are the spaces' own (Space.Name).
var registry = []wireSpace{
	{1, metric.EuclideanSpace},
	{2, metric.ManhattanSpace},
	{3, metric.ChebyshevSpace},
	{4, metric.AngularSpace},
	{5, metric.CosineSpace},
}

// SpaceID maps a metric space to its wire identifier. A nil space is treated
// as Euclidean (the library default). The space is identified by its scalar
// function through metric.SpaceFor, so an adapter over a built-in function
// serializes as that built-in, while a custom function — also one whose
// adapter merely NAMES itself after a built-in — returns ErrUnknownDistance
// instead of serializing under the wrong metric.
func SpaceID(sp metric.Space) (uint8, error) {
	if sp == nil {
		return 1, nil
	}
	native := metric.SpaceFor(sp.Dist())
	for _, w := range registry {
		if w.space == native {
			return w.id, nil
		}
	}
	return 0, fmt.Errorf("%w: custom distance functions cannot be serialized; use a built-in distance", ErrUnknownDistance)
}

// SpaceByID maps a wire identifier to the registered metric space.
func SpaceByID(id uint8) (metric.Space, error) {
	for _, w := range registry {
		if w.id == id {
			return w.space, nil
		}
	}
	return nil, fmt.Errorf("%w: id %d", ErrUnknownDistance, id)
}

// DistanceName returns the name of the space registered under a wire
// identifier ("unknown" for unregistered ids).
func DistanceName(id uint8) string {
	if sp, err := SpaceByID(id); err == nil {
		return sp.Name()
	}
	return "unknown"
}

// SpaceByName maps a registered name (e.g. "euclidean") to its metric space
// and wire identifier; the daemon parses its -distance flag with it.
func SpaceByName(name string) (metric.Space, uint8, error) {
	for _, w := range registry {
		if w.space.Name() == name {
			return w.space, w.id, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: name %q", ErrUnknownDistance, name)
}

// SpaceNames lists the registered names in id order.
func SpaceNames() []string {
	out := make([]string, len(registry))
	for i, w := range registry {
		out[i] = w.space.Name()
	}
	return out
}
