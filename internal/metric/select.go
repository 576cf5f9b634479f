package metric

import "math/rand"

// selectInPlace returns the value of rank k (0-based, ascending) of buf by an
// iterative quickselect, reordering buf. It requires len(buf) > 0 and
// 0 <= k < len(buf); its three callers, the outlier-aware radius kernels,
// pass rank n-z-1 with 0 < z < n. The pivots come from a generator seeded by
// (len(buf), k), so the work done is reproducible; the returned value is the
// exact order statistic whatever the pivots.
//
// The paper has round 2 of the outlier algorithm binary-search the O(|T|^2)
// pairwise distances of the coreset union with Munro and Paterson's
// multi-pass median finding, in space linear in |T|. This implementation
// materialises its candidate radii instead (internal/outliers), so the only
// selection it needs is this in-memory one over n point-to-center distances.
func selectInPlace(buf []float64, k int) float64 {
	lo, hi := 0, len(buf)-1
	rng := rand.New(rand.NewSource(int64(len(buf))*2654435761 + int64(k)))
	for lo < hi {
		p := buf[lo+rng.Intn(hi-lo+1)]
		i, j := lo, hi
		for i <= j {
			for buf[i] < p {
				i++
			}
			for buf[j] > p {
				j--
			}
			if i <= j {
				buf[i], buf[j] = buf[j], buf[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return buf[k]
		}
	}
	return buf[k]
}
