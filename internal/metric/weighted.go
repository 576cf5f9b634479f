package metric

// WeightedPoint is a point together with a positive integer weight. Weighted
// coresets attach to each selected point the number of original points whose
// proxy it is; the weighted OutliersCluster algorithm then treats each coreset
// point as standing in for that many input points.
type WeightedPoint struct {
	P Point
	W int64
}

// WeightedSet is a collection of weighted points.
type WeightedSet []WeightedPoint

// Points returns the underlying (unweighted) points of the set.
func (ws WeightedSet) Points() Dataset {
	out := make(Dataset, len(ws))
	for i, wp := range ws {
		out[i] = wp.P
	}
	return out
}

// TotalWeight returns the sum of weights of the set.
func (ws WeightedSet) TotalWeight() int64 {
	var t int64
	for _, wp := range ws {
		t += wp.W
	}
	return t
}

// Unweighted wraps a plain dataset into a weighted set with unit weights,
// which is how the unweighted CharikarEtAl baseline is expressed in terms of
// the weighted OutliersCluster routine.
func Unweighted(points Dataset) WeightedSet {
	out := make(WeightedSet, len(points))
	for i, p := range points {
		out[i] = WeightedPoint{P: p, W: 1}
	}
	return out
}
