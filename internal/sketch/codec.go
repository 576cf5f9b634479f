package sketch

import (
	"encoding/binary"
	"fmt"
	"math"

	"coresetclustering/internal/metric"
)

// Wire format (all integers big-endian, floats as IEEE-754 bits):
//
//	offset  size  field
//	0       4     magic "KCSK"
//	4       2     version (currently 1)
//	6       1     kind (1 = k-center, 2 = k-center with outliers)
//	7       1     distance id (see the registry in sketch.go)
//	8       4     k
//	12      4     z
//	16      8     epsHat
//	24      4     tau (coreset budget)
//	28      8     phi
//	36      8     processed (int64, non-negative)
//	44      1     initialized (0 or 1)
//	45      4     dim (coordinates per point; 0 iff count is 0)
//	49      4     count (number of weighted points)
//	53      ...   count entries of: weight (int64, positive), dim coordinates
//
// The payload length must match the header exactly: shorter data is
// ErrTruncated, longer data is ErrCorrupt. Every field is validated on
// decode, so Decode never panics and never returns a sketch that Encode
// would refuse — encode(decode(b)) == b for every accepted b.

const (
	magic      = "KCSK"
	version    = 1
	headerSize = 53
)

// Encode serializes the sketch. It refuses (with the same typed errors as
// Decode) to serialize a structurally invalid sketch, so corrupt state can
// never be laundered into valid-looking bytes.
func Encode(s *Sketch) ([]byte, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil sketch", ErrCorrupt)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	dim := s.Dim()
	entry := 8 + 8*dim
	buf := make([]byte, headerSize+len(s.Points)*entry)
	copy(buf[0:4], magic)
	binary.BigEndian.PutUint16(buf[4:6], version)
	buf[6] = uint8(s.Kind)
	buf[7] = s.DistID
	binary.BigEndian.PutUint32(buf[8:12], uint32(s.K))
	binary.BigEndian.PutUint32(buf[12:16], uint32(s.Z))
	binary.BigEndian.PutUint64(buf[16:24], math.Float64bits(s.EpsHat))
	binary.BigEndian.PutUint32(buf[24:28], uint32(s.Tau))
	binary.BigEndian.PutUint64(buf[28:36], math.Float64bits(s.Phi))
	binary.BigEndian.PutUint64(buf[36:44], uint64(s.Processed))
	if s.Initialized {
		buf[44] = 1
	}
	binary.BigEndian.PutUint32(buf[45:49], uint32(dim))
	binary.BigEndian.PutUint32(buf[49:53], uint32(len(s.Points)))
	off := headerSize
	for _, wp := range s.Points {
		binary.BigEndian.PutUint64(buf[off:off+8], uint64(wp.W))
		off += 8
		for _, c := range wp.P {
			binary.BigEndian.PutUint64(buf[off:off+8], math.Float64bits(c))
			off += 8
		}
	}
	return buf, nil
}

// Decode parses and strictly validates a serialized sketch. Malformed input
// of any shape — truncated, wrong magic, unknown version/kind/distance,
// non-finite values, inadmissible points, weight or budget inconsistencies,
// trailing bytes — yields a typed error; Decode never panics and allocates no
// more than the input's own size.
func Decode(data []byte) (*Sketch, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), headerSize)
	}
	if string(data[0:4]) != magic {
		return nil, ErrBadMagic
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), headerSize)
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != version {
		return nil, fmt.Errorf("%w: got version %d, support %d", ErrUnsupportedVersion, v, version)
	}
	s := &Sketch{
		Kind:   Kind(data[6]),
		DistID: data[7],
		EpsHat: math.Float64frombits(binary.BigEndian.Uint64(data[16:24])),
		Phi:    math.Float64frombits(binary.BigEndian.Uint64(data[28:36])),
	}
	k := binary.BigEndian.Uint32(data[8:12])
	z := binary.BigEndian.Uint32(data[12:16])
	tau := binary.BigEndian.Uint32(data[24:28])
	if k > math.MaxInt32 || z > math.MaxInt32 || tau > math.MaxInt32 {
		return nil, fmt.Errorf("%w: parameter out of range (k=%d z=%d tau=%d)", ErrCorrupt, k, z, tau)
	}
	s.K, s.Z, s.Tau = int(k), int(z), int(tau)
	s.Processed = int64(binary.BigEndian.Uint64(data[36:44]))
	switch data[44] {
	case 0:
	case 1:
		s.Initialized = true
	default:
		return nil, fmt.Errorf("%w: initialized flag is %d", ErrCorrupt, data[44])
	}
	dim := binary.BigEndian.Uint32(data[45:49])
	count := binary.BigEndian.Uint32(data[49:53])
	if (count == 0) != (dim == 0) {
		// dim must be 0 exactly when there are no points, so that re-encoding
		// a decoded sketch reproduces the input byte for byte.
		return nil, fmt.Errorf("%w: dim=%d with count=%d", ErrCorrupt, dim, count)
	}

	// Fix the payload length before allocating anything: a hostile header
	// cannot make Decode allocate beyond the input's own size.
	remaining := uint64(len(data) - headerSize)
	entry := 8 + 8*uint64(dim)
	if uint64(count) > remaining/entry {
		return nil, fmt.Errorf("%w: %d points of dimension %d need %d bytes, have %d", ErrTruncated, count, dim, uint64(count)*entry, remaining)
	}
	if need := uint64(count) * entry; need != remaining {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d points", ErrCorrupt, remaining-need, count)
	}

	// One count×dim block holds every coordinate, row after row: one
	// allocation per sketch, and a restored state scans dense rows.
	s.Points = make(metric.WeightedSet, count)
	block := make([]float64, uint64(count)*uint64(dim))
	off := headerSize
	for i := range s.Points {
		w := int64(binary.BigEndian.Uint64(data[off : off+8]))
		off += 8
		p := metric.Point(block[:dim:dim])
		block = block[dim:]
		for j := range p {
			p[j] = math.Float64frombits(binary.BigEndian.Uint64(data[off : off+8]))
			off += 8
		}
		s.Points[i] = metric.WeightedPoint{P: p, W: w}
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate enforces every structural invariant of a sketch. It is shared by
// Encode, Decode and Merge so the three can never drift apart on what a
// valid sketch is.
func (s *Sketch) validate() error {
	if !s.Kind.valid() {
		return fmt.Errorf("%w: unknown kind %d", ErrCorrupt, uint8(s.Kind))
	}
	if _, err := SpaceByID(s.DistID); err != nil {
		return err
	}
	if s.K < 1 {
		return fmt.Errorf("%w: k must be positive, got %d", ErrCorrupt, s.K)
	}
	if s.Z < 0 {
		return fmt.Errorf("%w: negative z %d", ErrCorrupt, s.Z)
	}
	// The wire format stores k, z and tau as uint32; anything above int32
	// range would silently truncate on encode (and can never decode back).
	if s.K > math.MaxInt32 || s.Z > math.MaxInt32 || s.Tau > math.MaxInt32 {
		return fmt.Errorf("%w: parameter out of range (k=%d z=%d tau=%d)", ErrCorrupt, s.K, s.Z, s.Tau)
	}
	if math.IsNaN(s.EpsHat) || math.IsInf(s.EpsHat, 0) || s.EpsHat < 0 {
		return fmt.Errorf("%w: invalid epsHat %v", ErrCorrupt, s.EpsHat)
	}
	if s.Kind == KindKCenter && (s.Z != 0 || s.EpsHat != 0) {
		return fmt.Errorf("%w: k-center sketch carries outlier parameters (z=%d epsHat=%v)", ErrCorrupt, s.Z, s.EpsHat)
	}
	minTau := s.K
	if s.Kind == KindOutliers {
		minTau = s.K + s.Z
	}
	if s.Tau < minTau {
		return fmt.Errorf("%w: budget tau=%d below %d", ErrCorrupt, s.Tau, minTau)
	}
	if err := s.State().Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}
