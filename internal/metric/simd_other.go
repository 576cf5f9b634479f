//go:build !amd64 || purego

package metric

// Builds without the assembly (other architectures, and the purego tag that
// runs the test suite on the pure-Go order) always take the pure-Go kernels,
// which are bit-identical to the assembly fast paths by construction.

const haveAVXKernels = false

func argNearestEucAVX(p Point, set []Point) (float64, int) {
	panic("metric: AVX kernel called on a build without it")
}

func distancesToEucAVX(p Point, set []Point, dst []float64) {
	panic("metric: AVX kernel called on a build without it")
}

func distancesToIdxEucAVX(p Point, points []Point, idx []int32, dst []float64) int {
	panic("metric: AVX kernel called on a build without it")
}

func updateNearestEucAVX(c Point, block []Point, minDist []float64, minIdx []int, newIdx int) float64 {
	panic("metric: AVX kernel called on a build without it")
}
