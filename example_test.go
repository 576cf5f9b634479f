package kcenter_test

import (
	"fmt"
	"slices"

	kcenter "coresetclustering"
)

// ExampleCluster demonstrates plain k-center clustering on a small dataset.
func ExampleCluster() {
	points := kcenter.Dataset{
		{0, 0}, {1, 0}, {0, 1},
		{100, 100}, {101, 100}, {100, 101},
	}
	res, err := kcenter.Cluster(points, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", len(res.Centers))
	fmt.Printf("radius: %.2f\n", res.Radius)
	// Output:
	// clusters: 2
	// radius: 1.41
}

// ExampleClusterWithOutliers shows how a single far-away point is absorbed by
// the outlier budget instead of distorting the clustering.
func ExampleClusterWithOutliers() {
	points := kcenter.Dataset{
		{0, 0}, {1, 0}, {0, 1},
		{100, 100}, {101, 100}, {100, 101},
		{100000, 100000}, // a corrupted reading
	}
	res, err := kcenter.ClusterWithOutliers(points, 2, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("radius stays small:", res.Radius < 5)
	fmt.Println("outlier index:", res.Outliers[0])
	// Output:
	// radius stays small: true
	// outlier index: 6
}

// ExampleGonzalez runs the classic sequential 2-approximation.
func ExampleGonzalez() {
	points := kcenter.Dataset{{0}, {1}, {10}, {11}}
	res, err := kcenter.Gonzalez(points, 2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("radius: %.0f\n", res.Radius)
	// Output:
	// radius: 1
}

// ExampleStreamingKCenter maintains a clustering of a stream under a fixed
// memory budget.
func ExampleStreamingKCenter() {
	s, err := kcenter.NewStreamingKCenter(2, 16)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 1000; i++ {
		_ = s.Observe(kcenter.Point{float64(i % 2 * 100), float64(i % 3)})
	}
	centers, err := s.Centers()
	if err != nil {
		panic(err)
	}
	fmt.Println("centers:", len(centers))
	fmt.Println("memory bounded:", s.WorkingMemory() <= 16)
	// Output:
	// centers: 2
	// memory bounded: true
}

// ExampleMergeSketches spreads one stream over three shards: each shard
// snapshots its summary, the sketches merge without any raw point, and the
// merged summary yields the centres.
func ExampleMergeSketches() {
	var points kcenter.Dataset
	for i := 0; i < 900; i++ {
		points = append(points, kcenter.Point{float64(i % 2 * 100), float64(i % 5)})
	}
	var sketches [][]byte
	for shard := 0; shard < 3; shard++ {
		s, err := kcenter.NewStreamingKCenter(2, 16)
		if err != nil {
			panic(err)
		}
		for i := shard; i < len(points); i += 3 {
			_ = s.Observe(points[i])
		}
		snap, err := s.Snapshot()
		if err != nil {
			panic(err)
		}
		sketches = append(sketches, snap)
	}
	merged, err := kcenter.MergeSketches(sketches...)
	if err != nil {
		panic(err)
	}
	global, err := kcenter.RestoreStreamingKCenter(merged)
	if err != nil {
		panic(err)
	}
	centers, err := global.Centers()
	if err != nil {
		panic(err)
	}
	radius, _ := kcenter.Radius(points, centers)
	fmt.Println("observed:", global.Observed())
	fmt.Println("centers:", len(centers))
	fmt.Println("radius:", radius)
	// Output:
	// observed: 900
	// centers: 2
	// radius: 4
}

// ExampleNewWindowedKCenter follows two clusters that jump halfway through
// the stream: a window over the last 100 points forgets where they were, and
// a restored snapshot answers exactly as the live stream does.
func ExampleNewWindowedKCenter() {
	w, err := kcenter.NewWindowedKCenter(2, 16, kcenter.WithWindowSize(100))
	if err != nil {
		panic(err)
	}
	for i := 0; i < 1000; i++ {
		shift := float64(i / 500 * 1000)
		_ = w.Observe(kcenter.Point{shift + float64(i%2*100), float64(i % 3)})
	}
	centers, err := w.Centers()
	if err != nil {
		panic(err)
	}
	fmt.Println("centers follow the jump:", centers[0][0] >= 1000 && centers[1][0] >= 1000)
	snap, err := w.Snapshot()
	if err != nil {
		panic(err)
	}
	restored, err := kcenter.RestoreWindowedKCenter(snap)
	if err != nil {
		panic(err)
	}
	again, err := restored.Centers()
	if err != nil {
		panic(err)
	}
	fmt.Println("restored answers identically:", slices.EqualFunc(centers, again, kcenter.Point.Equal))
	// Output:
	// centers follow the jump: true
	// restored answers identically: true
}
