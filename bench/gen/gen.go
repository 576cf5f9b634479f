// Package gen is the benchmark's seeded input generator. Every batch is a
// pure function of (seed, workload, stream, batch index), so a reference
// replay can regenerate exactly the bytes a client sent without keeping them,
// and two commits measured with one seed do identical work.
//
// The data is a mixture of Blobs Gaussian blobs in Dim dimensions with
// power-law weights. Stream workloads add a slow linear drift to every blob:
// without it the doubling coreset collapses to one point per blob after a few
// merges and a budget-sized structure is never exercised.
//
// The mixture itself (blob centres, weights, drift directions) is a function
// of (workload, stream) only: it is part of what the workload is. The seed
// draws the points from it. Two seeds therefore give different points with
// the same large-scale structure, which keeps the amount of work (doubling
// merges, radius-search steps) comparable from seed to seed.
//
// gen depends on nothing else in the repository, so the KCFL and JSON
// encoders here are an independent statement of the wire formats.
package gen

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strconv"
)

const (
	// Dim is the dimensionality of every generated point.
	Dim = 16
	// Blobs is the number of mixture components.
	Blobs = 40

	boxSide    = 100.0 // blob centres are uniform in [0,boxSide]^Dim
	blobSD     = 2.0
	outlierGap = 2000.0 // planted outliers sit this far from the box centre
)

// Source generates one stream of points.
type Source struct {
	key     uint64 // seeds the per-batch point draws
	batch   int
	drift   float64
	centres [Blobs][Dim]float64
	dirs    [Blobs][Dim]float64 // unit drift direction per blob
	cdf     [Blobs]float64
}

// New returns the source for one (seed, workload, stream). Batch(i) holds
// batch points; drift is the distance every blob centre moves per point of
// the stream (0 for a stationary mixture).
func New(seed uint64, workload, stream string, batch int, drift float64) *Source {
	shape := mix(mix(hashString(workload)) ^ hashString(stream))
	s := &Source{key: mix(shape ^ mix(seed)), batch: batch, drift: drift}
	rng := rand.New(rand.NewPCG(shape, 0x6b63656e74657200))
	var total float64
	for c := 0; c < Blobs; c++ {
		var norm float64
		for j := 0; j < Dim; j++ {
			s.centres[c][j] = rng.Float64() * boxSide
			s.dirs[c][j] = rng.NormFloat64()
			norm += s.dirs[c][j] * s.dirs[c][j]
		}
		norm = math.Sqrt(norm)
		for j := 0; j < Dim; j++ {
			s.dirs[c][j] /= norm
		}
		total += 1 / float64(c+1)
		s.cdf[c] = total
	}
	for c := range s.cdf {
		s.cdf[c] /= total
	}
	return s
}

// BatchSize is the number of points per batch.
func (s *Source) BatchSize() int { return s.batch }

// Fill writes batch i into dst, which must hold BatchSize()*Dim values.
func (s *Source) Fill(dst []float64, i int) {
	rng := rand.New(rand.NewPCG(s.key, mix(uint64(i)+1)))
	for p := 0; p < s.batch; p++ {
		c := s.pick(rng.Float64())
		shift := s.drift * float64(i*s.batch+p)
		row := dst[p*Dim : (p+1)*Dim]
		for j := range row {
			row[j] = s.centres[c][j] + shift*s.dirs[c][j] + blobSD*rng.NormFloat64()
		}
	}
}

// Batch returns batch i as a freshly allocated flat coordinate slice.
func (s *Source) Batch(i int) []float64 {
	dst := make([]float64, s.batch*Dim)
	s.Fill(dst, i)
	return dst
}

// Batches returns batches [from, from+n) as one flat coordinate slice.
func (s *Source) Batches(from, n int) []float64 {
	dst := make([]float64, n*s.batch*Dim)
	for i := 0; i < n; i++ {
		s.Fill(dst[i*s.batch*Dim:(i+1)*s.batch*Dim], from+i)
	}
	return dst
}

func (s *Source) pick(u float64) int {
	lo, hi := 0, Blobs-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WithOutliers returns inliers (flat coordinates of n points) with count far
// outliers planted at seeded positions, and a mask marking them. The result
// holds n+count points.
func (s *Source) WithOutliers(inliers []float64, count int) (coords []float64, isOutlier []bool) {
	n := len(inliers) / Dim
	total := n + count
	coords = make([]float64, 0, total*Dim)
	isOutlier = make([]bool, total)
	rng := rand.New(rand.NewPCG(s.key, 0x6f75746c69657273))
	for _, pos := range rng.Perm(total)[:count] {
		isOutlier[pos] = true
	}
	next := 0
	for pos := 0; pos < total; pos++ {
		if !isOutlier[pos] {
			coords = append(coords, inliers[next*Dim:(next+1)*Dim]...)
			next++
			continue
		}
		var dir [Dim]float64
		var norm float64
		for j := range dir {
			dir[j] = rng.NormFloat64()
			norm += dir[j] * dir[j]
		}
		norm = math.Sqrt(norm)
		for j := range dir {
			coords = append(coords, boxSide/2+outlierGap*dir[j]/norm)
		}
	}
	return coords, isOutlier
}

// Rows views flat coordinates as one slice per point, sharing memory.
func Rows(coords []float64) [][]float64 {
	rows := make([][]float64, len(coords)/Dim)
	for i := range rows {
		rows[i] = coords[i*Dim : (i+1)*Dim : (i+1)*Dim]
	}
	return rows
}

// ContentTypeKCFL is the media type of a KCFL ingest body.
const ContentTypeKCFL = "application/x-kcenter-flat"

// AppendKCFL appends the binary flat frame of coords: "KCFL", big-endian
// uint16 version 1, uint16 reserved 0, uint32 dim, uint64 count, then the
// coordinates as big-endian float64.
func AppendKCFL(dst []byte, coords []float64) []byte {
	dst = append(dst, "KCFL"...)
	dst = binary.BigEndian.AppendUint16(dst, 1)
	dst = binary.BigEndian.AppendUint16(dst, 0)
	dst = binary.BigEndian.AppendUint32(dst, Dim)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(coords)/Dim))
	for _, c := range coords {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c))
	}
	return dst
}

// AppendJSON appends {"points":[[...],...]} with every coordinate in its
// shortest round-tripping decimal form, so a JSON batch decodes to the same
// float64 bits as its KCFL twin.
func AppendJSON(dst []byte, coords []float64) []byte {
	dst = append(dst, `{"points":[`...)
	for i := 0; i < len(coords); i += Dim {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, c := range coords[i : i+Dim] {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, c, 'g', -1, 64)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}"...)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
