package clusterer

import (
	"bytes"
	"math/rand"
	"testing"

	"coresetclustering/internal/metric"
	"coresetclustering/internal/sketch"
)

// flavours are the four streams the module offers: plain / outliers ×
// insertion-only / sliding window.
func flavours() map[string]Params {
	return map[string]Params{
		"plain":           {Kind: sketch.KindKCenter, K: 4, Tau: 16},
		"outliers":        {Kind: sketch.KindOutliers, K: 4, Z: 3, Tau: 16, EpsHat: DefaultEpsHat},
		"plain-window":    {Kind: sketch.KindKCenter, K: 4, Tau: 16, WindowSize: 300},
		"outliers-window": {Kind: sketch.KindOutliers, K: 4, Z: 3, Tau: 16, EpsHat: DefaultEpsHat, WindowSize: 300},
	}
}

// blobs scatters n points of the given dimension around a few anchors that
// drift, so the doubling coreset keeps admitting centers and merging.
func blobs(rng *rand.Rand, n, dim int) metric.Dataset {
	out := make(metric.Dataset, n)
	for i := range out {
		p := make(metric.Point, dim)
		anchor := float64(rng.Intn(6))*50 + float64(i)/10
		for j := range p {
			p[j] = anchor + rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

func mustNew(t testing.TB, p Params) *Clusterer {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustSnapshot(t testing.TB, c *Clusterer) []byte {
	t.Helper()
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestReturnedCentersDoNotAliasState is the aliasing boundary of the module:
// the coreset is read in place, and the centers handed to the caller are
// copies. Overwriting every coordinate of a result changes neither the next
// result nor the serialized state.
func TestReturnedCentersDoNotAliasState(t *testing.T) {
	for name, params := range flavours() {
		t.Run(name, func(t *testing.T) {
			c := mustNew(t, params)
			for _, p := range blobs(rand.New(rand.NewSource(3)), 900, 3) {
				if err := c.Process(p); err != nil {
					t.Fatal(err)
				}
			}
			snap := mustSnapshot(t, c)
			first, err := c.Centers()
			if err != nil {
				t.Fatal(err)
			}
			want := first.Clone()
			for _, p := range first {
				for j := range p {
					p[j] = -1e9
				}
			}
			again, err := c.Centers()
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != len(want) {
				t.Fatalf("%d centers after the caller overwrote a result, %d before", len(again), len(want))
			}
			for i := range want {
				if !again[i].Equal(want[i]) {
					t.Errorf("center %d is %v after the caller overwrote a result, was %v", i, again[i], want[i])
				}
			}
			if !bytes.Equal(mustSnapshot(t, c), snap) {
				t.Error("snapshot bytes changed after the caller overwrote returned centers")
			}
		})
	}
}

// TestObservedPointsAreNeverWritten pins the invariant every header-only copy
// in streaming, window, clusterer and sketch stands on: a point, once
// observed, is never written. It is retained by reference, except where a
// window coalesce's GMM reduction copies its survivors into a block of their
// own; that copy only reads the observed arrays. The run crosses doubling
// merge rounds, window coalesces with GMM reductions, Clone, queries on
// originals and clones, Snapshot/Restore and the sketch merge chain over
// states that share the observed arrays.
func TestObservedPointsAreNeverWritten(t *testing.T) {
	data := blobs(rand.New(rand.NewSource(4)), 4000, 5)
	pristine := data.Clone()
	for name, params := range flavours() {
		c := mustNew(t, params)
		shards := []*Clusterer{mustNew(t, params), mustNew(t, params)}
		var clones []*Clusterer
		for i, p := range data {
			if err := c.Process(p); err != nil {
				t.Fatal(err)
			}
			if err := shards[i%2].Process(p); err != nil {
				t.Fatal(err)
			}
			if i%500 != 499 {
				continue
			}
			cp := c.Clone()
			clones = append(clones, cp)
			for _, q := range []*Clusterer{c, cp, clones[0]} {
				if _, err := q.Centers(); err != nil {
					t.Fatal(err)
				}
			}
			restored, err := Restore(mustSnapshot(t, cp), 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := restored.Centers(); err != nil {
				t.Fatal(err)
			}
			// The clone keeps observing on its own: its merge rounds run
			// over headers copied from, and coordinates shared with, c.
			for _, q := range data[:200] {
				if err := cp.Process(q); err != nil {
					t.Fatal(err)
				}
			}
		}
		if w := c.Window(); w != nil {
			coalesced := false
			for _, b := range w.Buckets() {
				coalesced = coalesced || b.Level > 1
			}
			if !coalesced {
				t.Fatalf("%s: no bucket above level 1; the run must cross coalesces", name)
			}
		} else {
			if c.doubling.Phi() == 0 {
				t.Fatalf("%s: phi is 0; the run must cross merge rounds", name)
			}
			// The merge chain over states sharing the observed arrays.
			var parts []*sketch.Sketch
			for _, s := range shards {
				parts = append(parts, sketch.FromState(params.Kind, 1, params.K, params.Z, params.EpsHat, s.doubling.State()))
			}
			merged, err := sketch.Merge(parts...)
			if err != nil {
				t.Fatal(err)
			}
			if merged.Processed != int64(len(data)) {
				t.Fatalf("%s: merged sketch accounts for %d points, want %d", name, merged.Processed, len(data))
			}
		}
		for i := range data {
			if !data[i].Equal(pristine[i]) {
				t.Fatalf("%s: observed point %d was written: %v, was %v", name, i, data[i], pristine[i])
			}
		}
	}
}

// TestWindowQueryAllocatesConstantObjects guards the cost model of a window
// query: one pre-sized header copy of the union plus the extraction's own
// buffers and the k returned centers — not one object per retained point.
func TestWindowQueryAllocatesConstantObjects(t *testing.T) {
	const k = 8
	c := mustNew(t, Params{Kind: sketch.KindKCenter, K: k, Tau: 32, WindowSize: 20_000, Workers: 1})
	for _, p := range blobs(rand.New(rand.NewSource(5)), 25_000, 4) {
		if err := c.Process(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Window().LiveBuckets(); got < 20 {
		t.Fatalf("only %d live buckets; the guard needs at least 20", got)
	}
	retained := c.WorkingMemory()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.Centers(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d live buckets, %d retained points, %v allocations per query", c.Window().LiveBuckets(), retained, allocs)
	if allocs > 32+k {
		t.Errorf("a query over %d retained points made %v allocations, want a constant (at most %d)", retained, allocs, 32+k)
	}
}
