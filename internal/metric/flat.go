package metric

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Flat is a dataset in contiguous flat storage: one []float64 backing buffer
// holding the coordinates of all points back to back, plus the
// dimensionality. Points materialised from a Flat are slice headers into the
// shared buffer — zero per-point coordinate allocations, and blocked
// iteration walks memory strictly forward, which is what the batched Space
// kernels are designed around.
//
// A Flat is not safe for concurrent mutation; once built it can be shared
// freely (every algorithm in the module treats points as immutable).
type Flat struct {
	dim int
	buf []float64
}

// ErrFlatDim is returned when a point of the wrong dimensionality is appended
// to a Flat or when a Flat is created with a non-positive dimension.
var ErrFlatDim = errors.New("metric: flat dataset dimension mismatch")

// NewFlat creates an empty flat dataset of the given dimensionality,
// preallocating room for capacity points.
func NewFlat(dim, capacity int) (*Flat, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("%w: dim %d", ErrFlatDim, dim)
	}
	if capacity < 0 {
		capacity = 0
	}
	return &Flat{dim: dim, buf: make([]float64, 0, dim*capacity)}, nil
}

// FlatFromDataset copies a conventional dataset into flat storage. The
// dataset must be non-empty and dimensionally consistent.
func FlatFromDataset(ds Dataset) (*Flat, error) {
	if len(ds) == 0 {
		return nil, errors.New("metric: flat dataset from empty dataset")
	}
	f, err := NewFlat(ds.Dim(), len(ds))
	if err != nil {
		return nil, err
	}
	for i, p := range ds {
		if err := f.Append(p); err != nil {
			return nil, fmt.Errorf("metric: point %d: %w", i, err)
		}
	}
	return f, nil
}

// Append copies one point into the flat buffer.
func (f *Flat) Append(p Point) error {
	if len(p) != f.dim {
		return fmt.Errorf("%w: point has dim %d, flat has %d", ErrFlatDim, len(p), f.dim)
	}
	f.buf = append(f.buf, p...)
	return nil
}

// Reset empties the dataset in place, keeping dimension and storage so the
// buffer can be refilled without reallocating.
func (f *Flat) Reset() { f.buf = f.buf[:0] }

// Len returns the number of points stored.
func (f *Flat) Len() int { return len(f.buf) / f.dim }

// Dim returns the dimensionality.
func (f *Flat) Dim() int { return f.dim }

// at returns the i-th point as a zero-copy view into the backing buffer.
// Mutating the returned point mutates the flat dataset.
func (f *Flat) at(i int) Point { return f.buf[i*f.dim : (i+1)*f.dim : (i+1)*f.dim] }

// Coords exposes the backing buffer (length Len()*Dim()); points are stored
// back to back in index order.
func (f *Flat) Coords() []float64 { return f.buf }

// Dataset materialises the flat storage as a conventional Dataset whose
// points are slice headers into the shared backing buffer: one allocation for
// the header slice, zero per-coordinate copies. The result is what the
// Dataset-typed algorithm entry points consume; because the coordinates stay
// contiguous, blocked kernels over it walk memory strictly forward.
func (f *Flat) Dataset() Dataset {
	n := f.Len()
	out := make(Dataset, n)
	for i := 0; i < n; i++ {
		out[i] = f.at(i)
	}
	return out
}

// Binary flat-buffer format (all integers and float bit patterns
// big-endian, matching the sketch codec's conventions):
//
//	offset  size  field
//	0       4     magic "KCFL"
//	4       2     version (currently 1)
//	6       2     reserved (must be 0)
//	8       4     dim (>= 1)
//	12      8     count (number of points, >= 0)
//	20      ...   count*dim IEEE-754 float64 bit patterns
//
// The payload length must match the header exactly. Decoding validates every
// coordinate for NaN/Inf, so a loaded Flat always satisfies Validate.

// FlatMagic is the 4-byte magic prefix of the binary flat-buffer format;
// loaders sniff it to distinguish flat files from text formats.
const FlatMagic = "KCFL"

const (
	flatVersion    = 1
	flatHeaderSize = 20
)

// Typed flat-codec errors.
var (
	// ErrFlatBadMagic means the data does not start with FlatMagic.
	ErrFlatBadMagic = errors.New("metric: bad magic (not a flat dataset)")
	// ErrFlatUnsupportedVersion means the file was written by a newer codec.
	ErrFlatUnsupportedVersion = errors.New("metric: unsupported flat codec version")
	// ErrFlatCorrupt means a structurally invalid header or payload:
	// non-positive dim, truncated or oversized payload, or NaN/Inf
	// coordinates.
	ErrFlatCorrupt = errors.New("metric: corrupt flat data")
)

// WriteTo serialises the flat dataset in the binary flat-buffer format.
func (f *Flat) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var hdr [flatHeaderSize]byte
	copy(hdr[0:4], FlatMagic)
	binary.BigEndian.PutUint16(hdr[4:6], flatVersion)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(f.dim))
	binary.BigEndian.PutUint64(hdr[12:20], uint64(f.Len()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	var scratch [8]byte
	for _, c := range f.buf {
		binary.BigEndian.PutUint64(scratch[:], math.Float64bits(c))
		if _, err := bw.Write(scratch[:]); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return int64(flatHeaderSize + 8*len(f.buf)), nil
}

// ReadFlat decodes a flat dataset from the binary flat-buffer format. Every
// malformed input maps to one of the typed errors above; ReadFlat never
// panics.
func ReadFlat(r io.Reader) (*Flat, error) {
	br := bufio.NewReader(r)
	var hdr [flatHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: %d-byte header", ErrFlatCorrupt, flatHeaderSize)
		}
		return nil, err
	}
	if string(hdr[0:4]) != FlatMagic {
		return nil, ErrFlatBadMagic
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != flatVersion {
		return nil, fmt.Errorf("%w: version %d", ErrFlatUnsupportedVersion, v)
	}
	if rsv := binary.BigEndian.Uint16(hdr[6:8]); rsv != 0 {
		return nil, fmt.Errorf("%w: non-zero reserved field %d", ErrFlatCorrupt, rsv)
	}
	dim := binary.BigEndian.Uint32(hdr[8:12])
	count := binary.BigEndian.Uint64(hdr[12:20])
	if dim == 0 || dim > 1<<20 {
		return nil, fmt.Errorf("%w: dim %d", ErrFlatCorrupt, dim)
	}
	const maxCoords = 1 << 33 // 64 GiB of float64s; far beyond any real input
	total := count * uint64(dim)
	if count > maxCoords || total > maxCoords {
		return nil, fmt.Errorf("%w: %d points of dim %d exceed the size cap", ErrFlatCorrupt, count, dim)
	}
	// Preallocate only a bounded amount up front: the header is untrusted,
	// and a crafted count must not translate into a giant allocation before
	// a single payload byte has been read. append grows the buffer as real
	// data arrives.
	pre := total
	if const1M := uint64(1 << 20); pre > const1M {
		pre = const1M
	}
	f := &Flat{dim: int(dim), buf: make([]float64, 0, pre)}
	var scratch [8]byte
	for i := uint64(0); i < total; i++ {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, fmt.Errorf("%w: payload ends at coordinate %d of %d", ErrFlatCorrupt, i, total)
			}
			return nil, err
		}
		c := math.Float64frombits(binary.BigEndian.Uint64(scratch[:]))
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("%w: coordinate %d is %v", ErrFlatCorrupt, i, c)
		}
		f.buf = append(f.buf, c)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after %d coordinates", ErrFlatCorrupt, total)
	}
	return f, nil
}

// AppendFrame appends the flat dataset's binary flat-buffer encoding (the
// exact bytes WriteTo produces) to dst and returns the extended slice. It is
// the in-memory encoder behind the daemon's binary ingest wire format.
func (f *Flat) AppendFrame(dst []byte) []byte {
	var hdr [flatHeaderSize]byte
	copy(hdr[0:4], FlatMagic)
	binary.BigEndian.PutUint16(hdr[4:6], flatVersion)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(f.dim))
	binary.BigEndian.PutUint64(hdr[12:20], uint64(f.Len()))
	dst = append(dst, hdr[:]...)
	var scratch [8]byte
	for _, c := range f.buf {
		binary.BigEndian.PutUint64(scratch[:], math.Float64bits(c))
		dst = append(dst, scratch[:]...)
	}
	return dst
}

// DecodeFlatFrame decodes one binary flat-buffer frame from the front of
// data and returns the remaining bytes. Unlike ReadFlat it works on an
// in-memory buffer, so the payload length is validated against the header
// BEFORE the coordinate buffer is allocated: the decode performs exactly one
// allocation (the coordinate slice, sized from the now-trusted count) no
// matter how many points the frame holds — zero per-point allocations.
// Every malformed input maps to a typed flat-codec error; it never panics.
// Trailing bytes are returned, not rejected — the caller decides whether a
// trailer (e.g. the wire protocol's timestamp block) is allowed.
func DecodeFlatFrame(data []byte) (*Flat, []byte, error) {
	if len(data) < flatHeaderSize {
		return nil, nil, fmt.Errorf("%w: %d bytes, need the %d-byte header", ErrFlatCorrupt, len(data), flatHeaderSize)
	}
	if string(data[0:4]) != FlatMagic {
		return nil, nil, ErrFlatBadMagic
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != flatVersion {
		return nil, nil, fmt.Errorf("%w: version %d", ErrFlatUnsupportedVersion, v)
	}
	if rsv := binary.BigEndian.Uint16(data[6:8]); rsv != 0 {
		return nil, nil, fmt.Errorf("%w: non-zero reserved field %d", ErrFlatCorrupt, rsv)
	}
	dim := binary.BigEndian.Uint32(data[8:12])
	count := binary.BigEndian.Uint64(data[12:20])
	if dim == 0 || dim > 1<<20 {
		return nil, nil, fmt.Errorf("%w: dim %d", ErrFlatCorrupt, dim)
	}
	// Cap count before multiplying so total cannot overflow (count ≤ 2^33,
	// dim ≤ 2^20 keeps the product well under 2^64).
	const maxCoords = 1 << 33
	total := count * uint64(dim)
	if count > maxCoords || total > maxCoords {
		return nil, nil, fmt.Errorf("%w: %d points of dim %d exceed the size cap", ErrFlatCorrupt, count, dim)
	}
	if total > uint64(len(data))/8 {
		// The payload cannot possibly fit in data; rejected before any
		// allocation, so a crafted count never costs memory.
		return nil, nil, fmt.Errorf("%w: %d points of dim %d exceed the %d payload bytes",
			ErrFlatCorrupt, count, dim, len(data)-flatHeaderSize)
	}
	payload := data[flatHeaderSize:]
	if uint64(len(payload)) < total*8 {
		return nil, nil, fmt.Errorf("%w: payload ends at byte %d of %d", ErrFlatCorrupt, len(payload), total*8)
	}
	buf := make([]float64, total)
	for i := range buf {
		c := math.Float64frombits(binary.BigEndian.Uint64(payload[8*i:]))
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, nil, fmt.Errorf("%w: coordinate %d is %v", ErrFlatCorrupt, i, c)
		}
		buf[i] = c
	}
	return &Flat{dim: int(dim), buf: buf}, payload[total*8:], nil
}

// SaveFlatFile writes the flat dataset to a file, creating or truncating it.
func SaveFlatFile(path string, f *Flat) error {
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metric: %w", err)
	}
	if _, err := f.WriteTo(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
