package sketch

import (
	"fmt"

	"coresetclustering/internal/streaming"
)

// Merge unions two or more sketches built on independent shards of a stream
// and re-runs the doubling reduction so the result is back under the shared
// coreset budget — the operational form of the paper's composable-coreset
// property. All sketches must agree on kind, distance, k, z, epsHat, budget
// and point dimensionality; anything else is ErrIncompatible.
//
// The inputs are only read: the merged sketch has headers of its own and
// shares the coordinate arrays of the points it kept, which — like every
// point admitted to a coreset — must not be written afterwards.
//
// Determinism: the merge is fully sequential (it never touches the parallel
// distance engine), its result depends only on the argument order, and
// merging a single sketch returns an equivalent sketch. The merged Processed
// count is the sum of the inputs', so weights keep accounting for every
// original point exactly once.
func Merge(sketches ...*Sketch) (*Sketch, error) {
	if len(sketches) == 0 {
		return nil, fmt.Errorf("%w: nothing to merge", ErrIncompatible)
	}
	base := sketches[0]
	dim := 0
	for i, s := range sketches {
		if s == nil {
			return nil, fmt.Errorf("%w: nil sketch at position %d", ErrIncompatible, i)
		}
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("sketch %d: %w", i, err)
		}
		if s.Kind != base.Kind {
			return nil, fmt.Errorf("%w: kind %s at position %d, want %s", ErrIncompatible, s.Kind, i, base.Kind)
		}
		if s.DistID != base.DistID {
			return nil, fmt.Errorf("%w: distance %s at position %d, want %s", ErrIncompatible, DistanceName(s.DistID), i, DistanceName(base.DistID))
		}
		if s.K != base.K || s.Z != base.Z || s.EpsHat != base.EpsHat {
			return nil, fmt.Errorf("%w: parameters (k=%d z=%d epsHat=%v) at position %d, want (k=%d z=%d epsHat=%v)",
				ErrIncompatible, s.K, s.Z, s.EpsHat, i, base.K, base.Z, base.EpsHat)
		}
		if s.Tau != base.Tau {
			return nil, fmt.Errorf("%w: budget tau=%d at position %d, want %d", ErrIncompatible, s.Tau, i, base.Tau)
		}
		if d := s.Dim(); d != 0 {
			if dim == 0 {
				dim = d
			} else if d != dim {
				return nil, fmt.Errorf("%w: dimension %d at position %d, want %d", ErrIncompatible, d, i, dim)
			}
		}
	}
	sp, err := SpaceByID(base.DistID)
	if err != nil {
		return nil, err
	}
	ds := make([]*streaming.Doubling, len(sketches))
	for i, s := range sketches {
		d, err := streaming.RestoreDoublingIn(sp, s.State())
		if err != nil {
			return nil, fmt.Errorf("sketch %d: %w: %v", i, ErrCorrupt, err)
		}
		ds[i] = d
	}
	merged, err := streaming.MergeDoublings(ds...)
	if err != nil {
		return nil, err
	}
	return FromState(base.Kind, base.DistID, base.K, base.Z, base.EpsHat, merged.State()), nil
}
