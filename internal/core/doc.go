// Package core implements the paper's primary contribution: coreset-based
// 2-round MapReduce algorithms for the k-center problem with and without
// outliers, the randomized space-efficient variant, and the improved
// sequential algorithm obtained by running the MapReduce strategy with a
// single partition (ell = 1).
//
// The algorithms are assembled from the substrates in sibling packages:
// internal/gmm (incremental Gonzalez), internal/coreset (composable coreset
// construction), internal/outliers (weighted OutliersCluster and its radius
// search), and internal/mapreduce (the partition/parallel-round simulator that
// stands in for a Spark cluster).
//
// Approximation guarantees (Theorems 1 and 2 of the paper, for datasets of
// doubling dimension D):
//
//	k-center:              2 + eps, local memory O(sqrt(|S| k) (4/eps)^D)
//	k-center, z outliers:  3 + eps, local memory O(sqrt(|S|(k+z)) (24/eps)^D)
//	randomized variant:    3 + eps w.h.p., local memory
//	                       O((sqrt(|S|(k+log|S|)) + z) (24/eps)^D)
//
// The MapReduce algorithms are oblivious to D: it appears only in the
// analysis, never as an input.
//
// The daemon's router runs the same two rounds over the network, and shares
// round 2 with this package: engine.Merge unions the shards' sketches and
// extracts through clusterer.Result, which calls gmm.Runner.Run (k-center)
// and outliers.SolveIn (z outliers) on the merged coreset, as KCenter and
// KCenterOutliers do on the coreset union here. Round 1 differs by
// construction and stays separate: here it is a static GMM coreset of a
// partition held in memory, there a doubling coreset that each shard's stream
// maintains one point at a time.
package core
