//go:build amd64 && !purego

package metric

// AVX fast paths for the Euclidean row kernels: four of them, ArgNearest,
// DistancesTo, DistancesTo by index and the GMM cache update (UpdateNearest).
// The vector accumulation is bit-identical to the pure-Go kernels by
// construction: one 256-bit accumulator register per row holds exactly the
// four lanes (s0, s1, s2, s3) of the canonical SquaredEuclidean order, and
// VSUBPD/VMULPD/VADDPD are the same IEEE operations applied lane-wise.
//
// The kernels are register-blocked: a pass evaluates four rows with four
// independent accumulators, so each load of p serves four rows and the four
// addition chains overlap their latencies. The four rows are then reduced
// together — two VHADDPD, two VPERM2F128, one VADDPD transpose the 4x4 block
// of partial sums and leave row r's (s0+s1)+(s2+s3) in lane r — instead of
// paying a six-instruction horizontal reduction per row. Each of those sums
// adds the same two operands as the scalar combine, so the order is the
// canonical one and the bits cannot move. ArgNearest compares a whole block
// against the running best in one VCMPPD and resolves a block that can win
// row by row with the scalar loop's strict comparison, so ties go to the
// lowest index and +Inf/NaN rows are never chosen, as in the scalar loop. A
// one-row loop handles len % 4.
//
// UpdateNearest merges a block's four sums into the caches without leaving
// the registers: an ordered less-than VCMPPD against minDist, one VBLENDVPD
// each into minDist and minIdx (a tie or a NaN sum keeps the entry and its
// index, as the scalar strict < does), and a VMAXPD running max, so the dense
// GMM round reads and writes each cache once. VMAXPD agrees with the scalar
// "if v > m { m = v }" lane by lane — it returns the running max whenever the
// comparison fails, NaN included — and the lanes' order can only matter
// between equal values of different bits, -0 and +0; a cache never holds -0
// (or NaN): it starts at +Inf and only ever takes a squared sum s < old. Go
// merges the len % 4 tail rows.
//
// Only AVX1 instructions are used (the gate below checks AVX1). The kernels
// require the dimensionality to be a multiple of four (no remainder handling
// in assembly); other shapes take the pure-Go path. Builds with the purego
// tag leave the assembly out, so every test runs on the pure-Go order the
// kernels claim to match.
//
// Memory contract (same as the Go kernels' q[:len(p)] reslice, but enforced
// by the caller instead of a bounds check): every point of the set must have
// at least len(p) coordinates. The engine only invokes kernels on validated
// Datasets, whose dimensionality is uniform.

// haveAVXKernels gates the assembly kernels at runtime: AVX must be present
// and the OS must have enabled YMM state (OSXSAVE + XCR0).
var haveAVXKernels = x86HasAVX()

// x86HasAVX reports AVX availability via CPUID and XGETBV.
func x86HasAVX() bool

// argNearestEucAVX returns the minimum squared Euclidean distance from p to
// the set and the index attaining it (strict comparison, lowest index wins
// ties). len(p) must be a positive multiple of 4 and the set non-empty.
//
//go:noescape
func argNearestEucAVX(p Point, set []Point) (float64, int)

// distancesToEucAVX writes dst[i] = SquaredEuclidean(p, set[i]). len(p) must
// be a positive multiple of 4 and len(dst) >= len(set).
//
//go:noescape
func distancesToEucAVX(p Point, set []Point, dst []float64)

// distancesToIdxEucAVX writes dst[i] = SquaredEuclidean(p, points[idx[i]])
// and returns how many entries it wrote: it stops before the first block of
// four (or tail row) holding an index outside [0, len(points)), leaving the
// rest to the caller. len(p) must be a positive multiple of 4 and
// len(dst) >= len(idx).
//
//go:noescape
func distancesToIdxEucAVX(p Point, points []Point, idx []int32, dst []float64) int

// updateNearestEucAVX min-merges SquaredEuclidean(c, block[i]) into minDist[i]
// (and newIdx into minIdx[i]) wherever it is strictly smaller, for the rows
// of the whole blocks of four, i < len(block) &^ 3, and returns the maximum
// of minDist over those rows after the merge (-Inf when there are none).
// len(c) must be a positive multiple of 4 and len(minDist), len(minIdx) >=
// len(block).
//
//go:noescape
func updateNearestEucAVX(c Point, block []Point, minDist []float64, minIdx []int, newIdx int) float64
