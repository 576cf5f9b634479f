package kcenter_test

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/internal/metric"
)

// TestOverflowingPointsRefusedInEveryFlavour is the overflow repro: finite
// coordinates whose squared differences overflow, which used to hang the
// merge rule. Every flavour refuses each point at once, with a typed error.
func TestOverflowingPointsRefusedInEveryFlavour(t *testing.T) {
	win := kcenter.WithWindowSize(100)
	for name, build := range map[string]func() (observer, error){
		"StreamingKCenter":  func() (observer, error) { return kcenter.NewStreamingKCenter(2, 3) },
		"StreamingOutliers": func() (observer, error) { return kcenter.NewStreamingOutliers(2, 1, 3) },
		"WindowedKCenter":   func() (observer, error) { return kcenter.NewWindowedKCenter(2, 3, win) },
		"WindowedOutliers":  func() (observer, error) { return kcenter.NewWindowedOutliers(2, 1, 3, win) },
	} {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 1; i <= 10; i++ {
			if err := s.Observe(kcenter.Point{float64(i) * 1e200, 0}); !errors.Is(err, metric.ErrInvalidCoordinate) {
				t.Fatalf("%s: point %d: %v, want ErrInvalidCoordinate", name, i, err)
			}
		}
		// A scan of two coordinates per point; the slack is for a loaded host.
		if el := time.Since(start); el > 10*time.Millisecond {
			t.Errorf("%s: refusing ten points took %v", name, el)
		}
		if s.Observed() != 0 {
			t.Errorf("%s: observed %d refused points", name, s.Observed())
		}
	}
}

// TestBatchEntryPointsAdmitByTheStreamRule is the overflow repro for the
// batch API: Cluster, ClusterWithOutliers and Gonzalez refuse what Observe
// refuses, with the same typed errors, and so do the evaluators Radius and
// RadiusExcluding, for their points and for their centers. Past the admission
// bound a squared Euclidean distance overflows to +Inf, and a batch call
// would report an infinite radius with a point assigned to no center.
func TestBatchEntryPointsAdmitByTheStreamRule(t *testing.T) {
	for name, run := range map[string]func(kcenter.Dataset) error{
		"Cluster": func(ds kcenter.Dataset) error {
			_, err := kcenter.Cluster(ds, 2)
			return err
		},
		"ClusterWithOutliers": func(ds kcenter.Dataset) error {
			_, err := kcenter.ClusterWithOutliers(ds, 1, 1)
			return err
		},
		"Gonzalez": func(ds kcenter.Dataset) error {
			_, err := kcenter.Gonzalez(ds, 2)
			return err
		},
		"Radius of bad points": func(ds kcenter.Dataset) error {
			_, err := kcenter.Radius(ds, nil)
			return err
		},
		"Radius to bad centers": func(ds kcenter.Dataset) error {
			_, err := kcenter.Radius(kcenter.Dataset{make(kcenter.Point, len(ds[0]))}, ds)
			return err
		},
		"RadiusExcluding of bad points": func(ds kcenter.Dataset) error {
			_, err := kcenter.RadiusExcluding(ds, nil, 1)
			return err
		},
		"RadiusExcluding to bad centers": func(ds kcenter.Dataset) error {
			_, err := kcenter.RadiusExcluding(kcenter.Dataset{make(kcenter.Point, len(ds[0]))}, ds, 1)
			return err
		},
	} {
		if err := run(kcenter.Dataset{{-1e200}, {0}, {1e200}}); !errors.Is(err, metric.ErrInvalidCoordinate) {
			t.Errorf("%s: coordinates beyond ±2^500: %v, want ErrInvalidCoordinate", name, err)
		}
		if err := run(kcenter.Dataset{{0, 0}, {1}, {2, 2}}); !errors.Is(err, metric.ErrDimensionMismatch) {
			t.Errorf("%s: mixed dimensions: %v, want ErrDimensionMismatch", name, err)
		}
	}
}

// observer is what the eight ways of obtaining a streaming clusterer share.
type observer interface {
	Observe(p kcenter.Point) error
	Observed() int64
	Centers() (kcenter.Dataset, error)
	Snapshot() ([]byte, error)
}

// TestObserveValidatesEveryFlavour pins the one admission check of the
// unified clusterer: every flavour — four constructors, four Restore
// functions — refuses a nil, NaN, infinite, zero-dimensional or
// dimension-mismatched point with an error (never a panic), the dimension is
// fixed by the first accepted point or by the restored sketch, and a refused
// point leaves Observed, Centers and the Snapshot bytes exactly as they were.
func TestObserveValidatesEveryFlavour(t *testing.T) {
	const k, z, budget = 2, 1, 8
	seed := kcenter.Dataset{{0, 0}, {10, 0}, {0, 10}}
	win := kcenter.WithWindowSize(100)

	// snapshotOf observes the seed points with a fresh clusterer and
	// serializes it, so the Restore cases start with the dimension fixed by
	// the sketch alone.
	snapshotOf := func(t *testing.T, s observer, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range seed {
			if err := s.Observe(p); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	cases := []struct {
		name     string
		restored bool
		build    func(t *testing.T) (observer, error)
	}{
		{"NewStreamingKCenter", false, func(*testing.T) (observer, error) { return kcenter.NewStreamingKCenter(k, budget) }},
		{"NewStreamingOutliers", false, func(*testing.T) (observer, error) { return kcenter.NewStreamingOutliers(k, z, budget) }},
		{"NewWindowedKCenter", false, func(*testing.T) (observer, error) { return kcenter.NewWindowedKCenter(k, budget, win) }},
		{"NewWindowedOutliers", false, func(*testing.T) (observer, error) { return kcenter.NewWindowedOutliers(k, z, budget, win) }},
		{"RestoreStreamingKCenter", true, func(t *testing.T) (observer, error) {
			s, err := kcenter.NewStreamingKCenter(k, budget)
			return kcenter.RestoreStreamingKCenter(snapshotOf(t, s, err))
		}},
		{"RestoreStreamingOutliers", true, func(t *testing.T) (observer, error) {
			s, err := kcenter.NewStreamingOutliers(k, z, budget)
			return kcenter.RestoreStreamingOutliers(snapshotOf(t, s, err))
		}},
		{"RestoreWindowedKCenter", true, func(t *testing.T) (observer, error) {
			s, err := kcenter.NewWindowedKCenter(k, budget, win)
			return kcenter.RestoreWindowedKCenter(snapshotOf(t, s, err))
		}},
		{"RestoreWindowedOutliers", true, func(t *testing.T) (observer, error) {
			s, err := kcenter.NewWindowedOutliers(k, z, budget, win)
			return kcenter.RestoreWindowedOutliers(snapshotOf(t, s, err))
		}},
	}

	bad := []struct {
		name string
		p    kcenter.Point
	}{
		{"nil", nil},
		{"NaN", kcenter.Point{math.NaN(), 1}},
		{"+Inf", kcenter.Point{1, math.Inf(1)}},
		{"-Inf", kcenter.Point{math.Inf(-1), 1}},
		{"zero-dimensional", kcenter.Point{}},
		{"three coordinates in a 2-d stream", kcenter.Point{1, 2, 3}},
		{"one coordinate in a 2-d stream", kcenter.Point{1}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.build(t)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.restored {
				// Refused points must not fix the dimension of an empty
				// stream: the first ACCEPTED point does.
				for _, p := range []kcenter.Point{{math.NaN(), 1, 2}, {}} {
					if err := s.Observe(p); err == nil {
						t.Fatalf("empty stream accepted %v", p)
					}
				}
				for _, p := range seed {
					if err := s.Observe(p); err != nil {
						t.Fatalf("2-d point after refused ones: %v", err)
					}
				}
			}
			wantObserved := s.Observed()
			wantCenters, err := s.Centers()
			if err != nil {
				t.Fatal(err)
			}
			wantSnap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if wantObserved != int64(len(seed)) {
				t.Fatalf("observed = %d, want %d", wantObserved, len(seed))
			}

			for _, b := range bad {
				if err := s.Observe(b.p); err == nil {
					t.Errorf("%s point accepted", b.name)
				}
				if w, ok := s.(interface {
					ObserveAt(kcenter.Point, int64) error
				}); ok {
					if err := w.ObserveAt(b.p, 7); err == nil {
						t.Errorf("%s point accepted by ObserveAt", b.name)
					}
				}
			}

			if got := s.Observed(); got != wantObserved {
				t.Errorf("observed = %d after refused points, want %d", got, wantObserved)
			}
			gotCenters, err := s.Centers()
			if err != nil {
				t.Fatalf("Centers after refused points: %v", err)
			}
			if len(gotCenters) != len(wantCenters) {
				t.Fatalf("%d centers after refused points, want %d", len(gotCenters), len(wantCenters))
			}
			for i := range wantCenters {
				if !gotCenters[i].Equal(wantCenters[i]) {
					t.Errorf("center %d = %v after refused points, want %v", i, gotCenters[i], wantCenters[i])
				}
			}
			gotSnap, err := s.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot after refused points: %v", err)
			}
			if !bytes.Equal(gotSnap, wantSnap) {
				t.Error("snapshot bytes changed after refused points")
			}
			// The stream is still live, and still 2-d.
			if err := s.Observe(kcenter.Point{5, 5}); err != nil {
				t.Errorf("valid point after refused ones: %v", err)
			}
		})
	}
}
