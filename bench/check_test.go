package main

import (
	"sort"
	"strings"
	"testing"

	kcenter "coresetclustering"
	"coresetclustering/bench/gen"
	"coresetclustering/internal/metric"
)

func failedChecks(r *result) []string {
	var out []string
	for _, c := range r.checks {
		if !c.ok {
			out = append(out, c.name)
		}
	}
	return out
}

func TestJudgeAcceptsGoodAndRejectsBadCentres(t *testing.T) {
	points := dataset(gen.New(1, "test", "points", 500, 0).Batches(0, 8))
	const k = gen.Blobs // one centre per blob: the reference radius is a blob's
	ref, err := newReference(points, points, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, err := kcenter.Cluster(points, k)
	if err != nil {
		t.Fatal(err)
	}

	r := newResult()
	radius, ratio := ref.judge(r, "good", good.Centers)
	if !r.correct() || radius != good.Radius || ratio <= 0 {
		t.Fatalf("a library solution was rejected: %v (radius %g ratio %g)", failedChecks(r), radius, ratio)
	}

	cases := map[string]struct {
		centers metric.Dataset
		failing string
	}{
		"too few centres":                 {good.Centers[:k-1], "centre count"},
		"a centre off the input":          {append(good.Centers[:k-1:k-1], good.Centers[k-1].Scale(1.0000001)), "input points"},
		"a duplicated centre":             {append(good.Centers[:k-1:k-1], good.Centers[0]), "input points"},
		"a radius far past the guarantee": {nearestTo(points, points[0], k), "approximation"},
	}
	for name, c := range cases {
		r := newResult()
		ref.judge(r, "bad", c.centers)
		if r.correct() {
			t.Errorf("%s: accepted", name)
			continue
		}
		found := false
		for _, f := range failedChecks(r) {
			found = found || strings.Contains(f, c.failing)
		}
		if !found {
			t.Errorf("%s: failed %v, want the %q check to fail", name, failedChecks(r), c.failing)
		}
	}
}

func TestJudgeWithOutliersIgnoresThePlantedPoints(t *testing.T) {
	src := gen.New(2, "test", "points", 500, 0)
	in := src.Batches(0, 8)
	all, _ := src.WithOutliers(in, 12)
	points, inliers := dataset(all), dataset(in)
	ref, err := newReference(points, inliers, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	out, err := kcenter.ClusterWithOutliers(points, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	r := newResult()
	if _, ratio := ref.judge(r, "outliers", out.Centers); !r.correct() || ratio > 2 {
		t.Fatalf("library solution rejected: %v (ratio %g)", failedChecks(r), ratio)
	}
	// The same centres judged without discarding anything must blow the bound.
	strict := &reference{points: points, k: 10, z: 0, radius: ref.radius}
	r = newResult()
	strict.judge(r, "strict", out.Centers)
	if r.correct() {
		t.Fatal("planted outliers did not break the z=0 check")
	}
}

func TestCorruptedSnapshotFailsTheCheck(t *testing.T) {
	points := dataset(gen.New(3, "test", "points", writeBatch, driftSmallBudget).Batches(0, 20))
	want, err := replaySnapshot(points, bulkBudget)
	if err != nil {
		t.Fatal(err)
	}
	r := newResult()
	checkSnapshot(r, "intact", append([]byte(nil), want...), want)
	if !r.correct() {
		t.Fatal("identical snapshots were reported different")
	}
	for name, got := range map[string][]byte{
		"one flipped bit": flipBit(want, len(want)/2),
		"truncated":       want[:len(want)-1],
		"empty":           nil,
	} {
		r := newResult()
		checkSnapshot(r, name, got, want)
		if r.correct() {
			t.Errorf("%s snapshot passed the check", name)
		}
	}
	// A replay that saw one batch less is a different snapshot too.
	short, err := replaySnapshot(points[:len(points)-writeBatch], bulkBudget)
	if err != nil {
		t.Fatal(err)
	}
	r = newResult()
	checkSnapshot(r, "lost batch", short, want)
	if r.correct() {
		t.Error("a snapshot missing one batch passed the check")
	}
}

// nearestTo returns the k points closest to p: distinct input points that
// all sit in one blob, so every other blob is left uncovered.
func nearestTo(points metric.Dataset, p metric.Point, k int) metric.Dataset {
	sorted := append(metric.Dataset(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return metric.Euclidean(sorted[i], p) < metric.Euclidean(sorted[j], p) })
	return sorted[:k]
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 1
	return out
}
