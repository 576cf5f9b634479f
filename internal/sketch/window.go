package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Window-sketch wire format (magic "KCWN"; all integers big-endian, floats as
// IEEE-754 bits):
//
//	offset  size  field
//	0       4     magic "KCWN"
//	4       2     version (currently 1)
//	6       1     kind (1 = k-center, 2 = k-center with outliers)
//	7       1     distance id (same registry as KCSK)
//	8       4     k
//	12      4     z
//	16      8     epsHat
//	24      4     tau (per-bucket and merged-query coreset budget)
//	28      8     maxCount (count-window bound, 0 = none)
//	36      8     maxAge (duration-window bound, 0 = none)
//	44      4     chi (per-level bucket capacity)
//	48      4     base (level-0 seal size)
//	52      8     seq (lifetime observed count)
//	60      8     lastTS (newest observed/advanced-to timestamp)
//	68      4     bucket count
//	72      ...   buckets, oldest first, each:
//	                4  level
//	                8  startSeq
//	                8  endSeq
//	                8  startTS
//	                8  endTS
//	                4  payload length
//	                .. payload: a complete KCSK sketch of the bucket's
//	                   doubling state, sharing the header's kind, distance,
//	                   k, z, epsHat and tau
//
// Validation is as strict as the KCSK codec's: DecodeWindow never panics,
// never returns a sketch EncodeWindow would refuse, and re-encoding a decoded
// window sketch reproduces the input byte for byte. On top of the per-bucket
// KCSK validation, the window layer checks the exponential-histogram
// structure itself: contiguous sequence ranges, non-decreasing timestamps,
// non-increasing levels towards the present, exact sealed-bucket sizes
// (base<<level points; only the newest bucket may be a partial level-0
// bucket), at most chi sealed buckets per level, and per-bucket processed
// counts that match the declared sequence ranges.

const (
	windowMagic        = "KCWN"
	windowVersion      = 1
	windowHeaderSize   = 72
	windowBucketHeader = 40
	// windowMaxLevel mirrors internal/window: a level-62 bucket would cover
	// 2^62 * base points.
	windowMaxLevel = 62
)

// WindowBucket is the decoded form of one bucket of a window sketch: the
// boundary metadata plus the bucket's doubling state as a nested Sketch.
type WindowBucket struct {
	// Level is the bucket's exponential-histogram size class.
	Level int
	// StartSeq and EndSeq delimit the covered stream slice [StartSeq, EndSeq).
	StartSeq, EndSeq int64
	// StartTS and EndTS are the timestamps of the oldest and newest point.
	StartTS, EndTS int64
	// Payload is the bucket's doubling-coreset state.
	Payload *Sketch
}

// WindowSketch is the decoded, in-memory form of a serialized sliding-window
// stream: the stream parameters, the window geometry, and the live buckets.
type WindowSketch struct {
	// Kind, DistID, K, Z, EpsHat and Tau have the same meaning as on Sketch.
	Kind   Kind
	DistID uint8
	K, Z   int
	EpsHat float64
	Tau    int
	// MaxCount and MaxAge are the window bounds (at least one positive).
	MaxCount, MaxAge int64
	// Chi and Base are the exponential-histogram parameters.
	Chi, Base int
	// Seq is the lifetime observed count (evicted points included).
	Seq int64
	// LastTS is the newest observed (or advanced-to) timestamp.
	LastTS int64
	// Buckets are the live buckets, oldest first.
	Buckets []WindowBucket
}

// IsWindowSketch reports whether the data begins with the window-sketch
// magic — the cheap discriminator between KCSK and KCWN blobs.
func IsWindowSketch(data []byte) bool {
	return len(data) >= len(windowMagic) && string(data[:len(windowMagic)]) == windowMagic
}

// EncodeWindow serializes a window sketch. Like Encode it refuses, with the
// same typed errors as DecodeWindow, to serialize a structurally invalid
// value.
func EncodeWindow(ws *WindowSketch) ([]byte, error) {
	if ws == nil {
		return nil, fmt.Errorf("%w: nil window sketch", ErrCorrupt)
	}
	if err := ws.validate(); err != nil {
		return nil, err
	}
	payloads := make([][]byte, len(ws.Buckets))
	size := windowHeaderSize
	for i := range ws.Buckets {
		p, err := Encode(ws.Buckets[i].Payload)
		if err != nil {
			return nil, fmt.Errorf("bucket %d: %w", i, err)
		}
		payloads[i] = p
		size += windowBucketHeader + len(p)
	}
	buf := make([]byte, size)
	copy(buf[0:4], windowMagic)
	binary.BigEndian.PutUint16(buf[4:6], windowVersion)
	buf[6] = uint8(ws.Kind)
	buf[7] = ws.DistID
	binary.BigEndian.PutUint32(buf[8:12], uint32(ws.K))
	binary.BigEndian.PutUint32(buf[12:16], uint32(ws.Z))
	binary.BigEndian.PutUint64(buf[16:24], math.Float64bits(ws.EpsHat))
	binary.BigEndian.PutUint32(buf[24:28], uint32(ws.Tau))
	binary.BigEndian.PutUint64(buf[28:36], uint64(ws.MaxCount))
	binary.BigEndian.PutUint64(buf[36:44], uint64(ws.MaxAge))
	binary.BigEndian.PutUint32(buf[44:48], uint32(ws.Chi))
	binary.BigEndian.PutUint32(buf[48:52], uint32(ws.Base))
	binary.BigEndian.PutUint64(buf[52:60], uint64(ws.Seq))
	binary.BigEndian.PutUint64(buf[60:68], uint64(ws.LastTS))
	binary.BigEndian.PutUint32(buf[68:72], uint32(len(ws.Buckets)))
	off := windowHeaderSize
	for i, b := range ws.Buckets {
		binary.BigEndian.PutUint32(buf[off:off+4], uint32(b.Level))
		binary.BigEndian.PutUint64(buf[off+4:off+12], uint64(b.StartSeq))
		binary.BigEndian.PutUint64(buf[off+12:off+20], uint64(b.EndSeq))
		binary.BigEndian.PutUint64(buf[off+20:off+28], uint64(b.StartTS))
		binary.BigEndian.PutUint64(buf[off+28:off+36], uint64(b.EndTS))
		binary.BigEndian.PutUint32(buf[off+36:off+40], uint32(len(payloads[i])))
		off += windowBucketHeader
		copy(buf[off:], payloads[i])
		off += len(payloads[i])
	}
	return buf, nil
}

// DecodeWindow parses and strictly validates a serialized window sketch.
// Malformed input of any shape yields a typed error; DecodeWindow never
// panics and allocates no more than a constant multiple of the input's size.
func DecodeWindow(data []byte) (*WindowSketch, error) {
	if len(data) < len(windowMagic) {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), windowHeaderSize)
	}
	if !IsWindowSketch(data) {
		return nil, fmt.Errorf("%w (not a window sketch)", ErrBadMagic)
	}
	if len(data) < windowHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(data), windowHeaderSize)
	}
	if v := binary.BigEndian.Uint16(data[4:6]); v != windowVersion {
		return nil, fmt.Errorf("%w: got version %d, support %d", ErrUnsupportedVersion, v, windowVersion)
	}
	ws := &WindowSketch{
		Kind:     Kind(data[6]),
		DistID:   data[7],
		EpsHat:   math.Float64frombits(binary.BigEndian.Uint64(data[16:24])),
		MaxCount: int64(binary.BigEndian.Uint64(data[28:36])),
		MaxAge:   int64(binary.BigEndian.Uint64(data[36:44])),
		Seq:      int64(binary.BigEndian.Uint64(data[52:60])),
		LastTS:   int64(binary.BigEndian.Uint64(data[60:68])),
	}
	k := binary.BigEndian.Uint32(data[8:12])
	z := binary.BigEndian.Uint32(data[12:16])
	tau := binary.BigEndian.Uint32(data[24:28])
	chi := binary.BigEndian.Uint32(data[44:48])
	base := binary.BigEndian.Uint32(data[48:52])
	if k > math.MaxInt32 || z > math.MaxInt32 || tau > math.MaxInt32 || chi > math.MaxInt32 || base > math.MaxInt32 {
		return nil, fmt.Errorf("%w: parameter out of range (k=%d z=%d tau=%d chi=%d base=%d)", ErrCorrupt, k, z, tau, chi, base)
	}
	ws.K, ws.Z, ws.Tau = int(k), int(z), int(tau)
	ws.Chi, ws.Base = int(chi), int(base)
	count := binary.BigEndian.Uint32(data[68:72])

	off := windowHeaderSize
	remaining := uint64(len(data) - off)
	if uint64(count) > remaining/windowBucketHeader {
		return nil, fmt.Errorf("%w: %d buckets need at least %d bytes, have %d", ErrTruncated, count, uint64(count)*windowBucketHeader, remaining)
	}
	ws.Buckets = make([]WindowBucket, count)
	for i := range ws.Buckets {
		if len(data)-off < windowBucketHeader {
			return nil, fmt.Errorf("%w: bucket %d header ends at %d bytes", ErrTruncated, i, len(data))
		}
		level := binary.BigEndian.Uint32(data[off : off+4])
		if level > windowMaxLevel {
			return nil, fmt.Errorf("%w: bucket %d level %d exceeds %d", ErrCorrupt, i, level, windowMaxLevel)
		}
		b := WindowBucket{
			Level:    int(level),
			StartSeq: int64(binary.BigEndian.Uint64(data[off+4 : off+12])),
			EndSeq:   int64(binary.BigEndian.Uint64(data[off+12 : off+20])),
			StartTS:  int64(binary.BigEndian.Uint64(data[off+20 : off+28])),
			EndTS:    int64(binary.BigEndian.Uint64(data[off+28 : off+36])),
		}
		plen := binary.BigEndian.Uint32(data[off+36 : off+40])
		off += windowBucketHeader
		if uint64(plen) > uint64(len(data)-off) {
			return nil, fmt.Errorf("%w: bucket %d payload of %d bytes exceeds remaining %d", ErrTruncated, i, plen, len(data)-off)
		}
		payload, err := Decode(data[off : off+int(plen)])
		if err != nil {
			return nil, fmt.Errorf("bucket %d payload: %w", i, err)
		}
		b.Payload = payload
		off += int(plen)
		ws.Buckets[i] = b
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d buckets", ErrCorrupt, len(data)-off, count)
	}
	if err := ws.validate(); err != nil {
		return nil, err
	}
	return ws, nil
}

// validate enforces every structural invariant of a window sketch; it is
// shared by EncodeWindow and DecodeWindow so the two can never drift apart.
func (ws *WindowSketch) validate() error {
	if !ws.Kind.valid() {
		return fmt.Errorf("%w: unknown kind %d", ErrCorrupt, uint8(ws.Kind))
	}
	if _, err := SpaceByID(ws.DistID); err != nil {
		return err
	}
	if ws.K < 1 {
		return fmt.Errorf("%w: k must be positive, got %d", ErrCorrupt, ws.K)
	}
	if ws.Z < 0 {
		return fmt.Errorf("%w: negative z %d", ErrCorrupt, ws.Z)
	}
	if ws.K > math.MaxInt32 || ws.Z > math.MaxInt32 || ws.Tau > math.MaxInt32 || ws.Chi > math.MaxInt32 || ws.Base > math.MaxInt32 {
		return fmt.Errorf("%w: parameter out of range (k=%d z=%d tau=%d chi=%d base=%d)", ErrCorrupt, ws.K, ws.Z, ws.Tau, ws.Chi, ws.Base)
	}
	if math.IsNaN(ws.EpsHat) || math.IsInf(ws.EpsHat, 0) || ws.EpsHat < 0 {
		return fmt.Errorf("%w: invalid epsHat %v", ErrCorrupt, ws.EpsHat)
	}
	if ws.Kind == KindKCenter && (ws.Z != 0 || ws.EpsHat != 0) {
		return fmt.Errorf("%w: k-center window sketch carries outlier parameters (z=%d epsHat=%v)", ErrCorrupt, ws.Z, ws.EpsHat)
	}
	minTau := ws.K
	if ws.Kind == KindOutliers {
		minTau = ws.K + ws.Z
	}
	if ws.Tau < minTau {
		return fmt.Errorf("%w: budget tau=%d below %d", ErrCorrupt, ws.Tau, minTau)
	}
	if ws.MaxCount < 0 || ws.MaxAge < 0 {
		return fmt.Errorf("%w: negative window bound (count=%d age=%d)", ErrCorrupt, ws.MaxCount, ws.MaxAge)
	}
	if ws.MaxCount == 0 && ws.MaxAge == 0 {
		return fmt.Errorf("%w: window sketch with no count or duration bound", ErrCorrupt)
	}
	if ws.Chi < 1 {
		return fmt.Errorf("%w: chi must be at least 1, got %d", ErrCorrupt, ws.Chi)
	}
	if ws.Base < 1 {
		return fmt.Errorf("%w: base must be at least 1, got %d", ErrCorrupt, ws.Base)
	}
	if ws.Seq < 0 {
		return fmt.Errorf("%w: negative observed count %d", ErrCorrupt, ws.Seq)
	}
	if ws.LastTS < 0 {
		return fmt.Errorf("%w: negative timestamp %d", ErrCorrupt, ws.LastTS)
	}

	var perLevel [windowMaxLevel + 1]int
	prevLevel := windowMaxLevel + 1
	var prevEndSeq, prevEndTS int64
	dim := 0
	for i, b := range ws.Buckets {
		if b.Payload == nil {
			return fmt.Errorf("%w: bucket %d has no payload", ErrCorrupt, i)
		}
		if err := b.Payload.validate(); err != nil {
			return fmt.Errorf("bucket %d payload: %w", i, err)
		}
		if b.Payload.Kind != ws.Kind || b.Payload.DistID != ws.DistID ||
			b.Payload.K != ws.K || b.Payload.Z != ws.Z || b.Payload.EpsHat != ws.EpsHat ||
			b.Payload.Tau != ws.Tau {
			return fmt.Errorf("%w: bucket %d payload parameters disagree with the window header", ErrCorrupt, i)
		}
		if b.Level < 0 || b.Level > windowMaxLevel {
			return fmt.Errorf("%w: bucket %d level %d out of range", ErrCorrupt, i, b.Level)
		}
		if b.StartSeq < 0 || b.EndSeq <= b.StartSeq {
			return fmt.Errorf("%w: bucket %d covers invalid range [%d,%d)", ErrCorrupt, i, b.StartSeq, b.EndSeq)
		}
		if i == 0 {
			prevEndSeq = b.StartSeq
		}
		if b.StartSeq != prevEndSeq {
			return fmt.Errorf("%w: bucket %d starts at seq %d, previous ended at %d", ErrCorrupt, i, b.StartSeq, prevEndSeq)
		}
		if b.StartTS < 0 || b.EndTS < b.StartTS || b.StartTS < prevEndTS {
			return fmt.Errorf("%w: bucket %d timestamps [%d,%d] out of order", ErrCorrupt, i, b.StartTS, b.EndTS)
		}
		count := b.EndSeq - b.StartSeq
		if b.Payload.Processed != count {
			return fmt.Errorf("%w: bucket %d payload summarises %d points, range covers %d", ErrCorrupt, i, b.Payload.Processed, count)
		}
		sealedSize := int64(ws.Base) << b.Level
		if sealedSize < int64(ws.Base) {
			return fmt.Errorf("%w: bucket %d size class overflows", ErrCorrupt, i)
		}
		last := i == len(ws.Buckets)-1
		if count == sealedSize {
			// Sealed bucket: obeys the per-level capacity and the
			// non-increasing level order.
			perLevel[b.Level]++
			if perLevel[b.Level] > ws.Chi {
				return fmt.Errorf("%w: more than chi=%d sealed buckets at level %d", ErrCorrupt, ws.Chi, b.Level)
			}
			if b.Level > prevLevel {
				return fmt.Errorf("%w: bucket %d at level %d follows level %d", ErrCorrupt, i, b.Level, prevLevel)
			}
			prevLevel = b.Level
		} else {
			// Only the newest bucket may be partially filled, and only at
			// level 0 below the seal size.
			if !last || b.Level != 0 || count >= sealedSize {
				return fmt.Errorf("%w: bucket %d holds %d points, level-%d buckets seal at %d", ErrCorrupt, i, count, b.Level, sealedSize)
			}
		}
		if d := b.Payload.Dim(); d != 0 {
			if dim == 0 {
				dim = d
			} else if d != dim {
				return fmt.Errorf("%w: bucket %d has dimension %d, want %d", ErrCorrupt, i, d, dim)
			}
		}
		prevEndSeq, prevEndTS = b.EndSeq, b.EndTS
	}
	if n := len(ws.Buckets); n > 0 {
		if ws.Buckets[n-1].EndSeq > ws.Seq {
			return fmt.Errorf("%w: buckets end at seq %d beyond observed %d", ErrCorrupt, ws.Buckets[n-1].EndSeq, ws.Seq)
		}
		if ws.Buckets[n-1].EndTS > ws.LastTS {
			return fmt.Errorf("%w: buckets end at timestamp %d beyond last %d", ErrCorrupt, ws.Buckets[n-1].EndTS, ws.LastTS)
		}
	}
	return nil
}
