package streaming

// Test-data generators shared with the external test package (the tests of
// the unified clusterer, which imports this package and so cannot be tested
// from inside it).
var (
	RandomDataset    = randomDataset
	ClusteredDataset = clusteredDataset
	WithOutliers     = withOutliers
)
