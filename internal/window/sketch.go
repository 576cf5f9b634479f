package window

import (
	"fmt"

	"coresetclustering/internal/sketch"
	"coresetclustering/internal/streaming"
)

// Sketch converts the window's state into a sketch.WindowSketch: the window
// geometry, the live buckets' boundaries, and each bucket's doubling state as
// a nested KCSK payload sharing the given stream parameters.
func (w *Window) Sketch(kind sketch.Kind, distID uint8, k, z int, epsHat float64) *sketch.WindowSketch {
	ws := &sketch.WindowSketch{
		Kind:     kind,
		DistID:   distID,
		K:        k,
		Z:        z,
		EpsHat:   epsHat,
		Tau:      w.tau,
		MaxCount: w.maxCount,
		MaxAge:   w.maxAge,
		Chi:      w.chi,
		Base:     w.base,
		Seq:      w.seq,
		LastTS:   w.lastTS,
	}
	for _, b := range w.live() {
		ws.Buckets = append(ws.Buckets, sketch.WindowBucket{
			Level:    b.level,
			StartSeq: b.startSeq,
			EndSeq:   b.endSeq,
			StartTS:  b.startTS,
			EndTS:    b.endTS,
			Payload:  sketch.FromState(kind, distID, k, z, epsHat, b.proc.State()),
		})
	}
	return ws
}

// FromSketch rebuilds a Window from a (validated) window sketch: the metric
// space is resolved from the sketch's distance id, every bucket's doubling
// state is restored, and a trailing partial level-0 bucket becomes the open
// bucket again. The codec has already enforced the structural invariants;
// restoring revalidates the doubling states themselves.
func FromSketch(ws *sketch.WindowSketch) (*Window, error) {
	sp, err := sketch.SpaceByID(ws.DistID)
	if err != nil {
		return nil, err
	}
	w, err := New(Config{
		Space:    sp,
		Tau:      ws.Tau,
		MaxCount: ws.MaxCount,
		MaxAge:   ws.MaxAge,
		Chi:      ws.Chi,
		Base:     ws.Base,
	})
	if err != nil {
		return nil, fmt.Errorf("window: %w: %v", sketch.ErrCorrupt, err)
	}
	w.seq = ws.Seq
	w.lastTS = ws.LastTS
	for i, wb := range ws.Buckets {
		proc, err := streaming.RestoreDoublingIn(sp, wb.Payload.State())
		if err != nil {
			return nil, fmt.Errorf("window: bucket %d: %w: %v", i, sketch.ErrCorrupt, err)
		}
		b := &bucket{
			proc:     proc,
			level:    wb.Level,
			count:    wb.EndSeq - wb.StartSeq,
			startSeq: wb.StartSeq,
			endSeq:   wb.EndSeq,
			startTS:  wb.StartTS,
			endTS:    wb.EndTS,
		}
		if d := wb.Payload.Dim(); d != 0 {
			w.dim = d
		}
		// A trailing level-0 bucket below the seal size is still accumulating.
		if i == len(ws.Buckets)-1 && wb.Level == 0 && b.count < int64(w.base) {
			w.open = b
		} else {
			w.sealed = append(w.sealed, b)
		}
	}
	return w, nil
}
