package main

import (
	"bytes"
	"fmt"
	"time"

	kcenter "coresetclustering"
	"coresetclustering/bench/gen"
	"coresetclustering/internal/metric"
)

// approxEps is the eps of the (2+eps) and (3+eps) checks. The reference is a
// Gonzalez radius, which is at least OPT, so the paper's guarantee implies
// radius <= (2+eps)*reference; measured ratios sit near 1, so the check only
// trips on a broken result, and radius_ratio carries the fine comparison.
const approxEps = 0.5

// check is one pass/fail correctness assertion of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// dataset views flat generator coordinates as a metric.Dataset (no copy of
// the coordinates).
func dataset(coords []float64) metric.Dataset { return toDataset(gen.Rows(coords)) }

// toDataset converts rows (generator output, or centres decoded from JSON).
func toDataset(rows [][]float64) metric.Dataset {
	out := make(metric.Dataset, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// reference is the sequential baseline a returned centre set is judged
// against: Gonzalez with the same k on the inliers, its radius taken over all
// points after discarding the z farthest.
type reference struct {
	points metric.Dataset
	k, z   int
	radius float64
}

// newReference computes the baseline; it is part of a workload's set-up. For
// z == 0 pass inliers == points.
func newReference(points, inliers metric.Dataset, k, z int) (*reference, error) {
	g, err := kcenter.Gonzalez(inliers, k)
	if err != nil {
		return nil, err
	}
	ref := &reference{points: points, k: k, z: z, radius: g.Radius}
	if z > 0 {
		if ref.radius, err = kcenter.RadiusExcluding(points, g.Centers, z); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// judge checks a returned centre set against the points it was computed
// from: exactly k centres (at most k with outliers, where the algorithm may
// return fewer), every centre one of the input points, and the radius within
// the paper's factor of the reference. It returns radius and radius/reference.
func (ref *reference) judge(r *result, label string, centers metric.Dataset) (radius, ratio float64) {
	k, z := ref.k, ref.z
	countOK := len(centers) == k || (z > 0 && len(centers) >= 1 && len(centers) <= k)
	r.check(label+" centre count", countOK, "%d centres for k=%d", len(centers), k)

	type key [gen.Dim]float64
	found := make(map[key]bool, len(centers))
	for _, c := range centers {
		if len(c) == gen.Dim {
			found[key(c)] = false
		}
	}
	for _, p := range ref.points {
		if _, ok := found[key(p)]; ok {
			found[key(p)] = true
		}
	}
	missing := len(centers) - len(found) // wrong dimension, or duplicates
	for _, ok := range found {
		if !ok {
			missing++
		}
	}
	r.check(label+" centres are input points", missing == 0 && len(centers) > 0,
		"%d of %d centres are not distinct points of the %d-point input", missing, len(centers), len(ref.points))
	if len(centers) == 0 {
		return 0, 0
	}

	factor := 2 + approxEps
	if z > 0 {
		factor = 3 + approxEps
		radius, _ = kcenter.RadiusExcluding(ref.points, centers, z)
	} else {
		radius, _ = kcenter.Radius(ref.points, centers)
	}
	ratio = radius / ref.radius
	r.check(label+" approximation", ref.radius > 0 && radius <= factor*ref.radius,
		"radius %.6g vs reference %.6g (ratio %.4f, allowed %.1f)", radius, ref.radius, ratio, factor)
	return radius, ratio
}

// checkSnapshot compares a daemon snapshot with the library replay's.
func checkSnapshot(r *result, label string, got, want []byte) {
	r.check(label, len(got) > 0 && bytes.Equal(got, want), "%d bytes from the daemon, %d from the replay", len(got), len(want))
}

// checkSchedule holds an open-loop section to its schedule: one that overruns
// it by more than 1 %, or completes under 99 % of its operations, is a failed
// run, not a slow one.
func (r *result) checkSchedule(wall time.Duration, seconds float64, completed, scheduled int) {
	r.check("schedule kept", wall.Seconds() <= seconds*1.01+0.05, "%.3f s for a %.3f s schedule", wall.Seconds(), seconds)
	r.check("completions", float64(completed) >= 0.99*float64(scheduled), "%d of %d operations completed", completed, scheduled)
}
