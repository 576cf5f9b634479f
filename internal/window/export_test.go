package window

// Helpers shared with the external test package (the tests of the windowed
// clusterer, which imports this package and so cannot be tested from inside
// it).
var (
	ClusteredData     = clusteredData
	AssertSameDataset = assertSameDataset
	NewDriftSource    = newDriftSource
)
