// Package wire implements the binary primitives shared by the durable
// Event Base codecs: varint and string appenders, a tagged encoding for
// attribute values, and CRC-framed records. Both the engine's write-ahead
// log and the segment codec of internal/event build on the same frame
// layer, so one implementation (and one corruption model) covers both.
//
// A frame is [length u32le][crc32c u32le][payload]: length counts the
// payload bytes, the checksum is Castagnoli CRC-32 over the payload.
// NextFrame distinguishes a frame that is torn (the file ends inside it —
// ErrTruncated) from one whose bytes are wrong (checksum mismatch —
// ErrCorrupt); recovery treats either as the end of the good prefix.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"chimera/internal/clock"
	"chimera/internal/types"
)

// ErrTruncated reports a frame cut short by the end of the log — the
// expected shape of a crash mid-write.
var ErrTruncated = errors.New("wire: truncated frame")

// ErrCorrupt reports a frame whose payload fails its checksum (or a
// record whose payload does not decode) — bit rot or a torn overwrite.
var ErrCorrupt = errors.New("wire: corrupt frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one CRC-framed payload to dst.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// NextFrame splits the first frame off data, returning its payload and
// the remainder. An empty data returns (nil, nil, nil). A frame the data
// ends inside returns ErrTruncated; a checksum mismatch ErrCorrupt.
func NextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) == 0 {
		return nil, nil, nil
	}
	if len(data) < 8 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(data[0:4]))
	sum := binary.LittleEndian.Uint32(data[4:8])
	if len(data) < 8+n {
		return nil, nil, ErrTruncated
	}
	payload = data[8 : 8+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, nil, ErrCorrupt
	}
	return payload, data[8+n:], nil
}

// AppendUvarint appends x in unsigned varint encoding.
func AppendUvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// AppendVarint appends x in zigzag varint encoding.
func AppendVarint(dst []byte, x int64) []byte {
	return binary.AppendVarint(dst, x)
}

// AppendBool appends a one-byte flag.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Value kind tags. They mirror types.Kind but are pinned here so the
// on-disk encoding cannot drift if the in-memory enum is reordered.
const (
	vkNull byte = iota
	vkInt
	vkFloat
	vkString
	vkBool
	vkTime
	vkOID
)

// AppendValue appends a tagged attribute value.
func AppendValue(dst []byte, v types.Value) ([]byte, error) {
	switch v.Kind() {
	case types.KindNull:
		return append(dst, vkNull), nil
	case types.KindInt:
		return AppendVarint(append(dst, vkInt), v.AsInt()), nil
	case types.KindFloat:
		dst = append(dst, vkFloat)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.AsFloat()))
		return append(dst, b[:]...), nil
	case types.KindString:
		return AppendString(append(dst, vkString), v.AsString()), nil
	case types.KindBool:
		return AppendBool(append(dst, vkBool), v.AsBool()), nil
	case types.KindTime:
		return AppendVarint(append(dst, vkTime), int64(v.AsTime())), nil
	case types.KindOID:
		return AppendVarint(append(dst, vkOID), int64(v.AsOID())), nil
	}
	return nil, fmt.Errorf("wire: unencodable value kind %v", v.Kind())
}

// Reader decodes wire primitives off the front of a byte slice. The
// first failure sticks: every later read returns a zero value and
// consumes nothing, so a decoder reads a whole layout and checks Err (or
// Done) once. Payload-level failures are ErrCorrupt: the frame CRC
// already vouched for the bytes, so a short read means bad data, not a
// torn write.
type Reader struct {
	p   []byte
	err error
}

// NewReader reads p.
func NewReader(p []byte) Reader { return Reader{p: p} }

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.p) }

// Rest returns the bytes left and consumes them.
func (r *Reader) Rest() []byte {
	p := r.p
	r.p = nil
	return p
}

// Done returns the first failure, or ErrCorrupt when bytes are left over
// at the end of what (a record, a frame).
func (r *Reader) Done(what string) error {
	if r.err == nil && len(r.p) != 0 {
		return fmt.Errorf("%w: trailing bytes in %s", ErrCorrupt, what)
	}
	return r.err
}

// Fail records err as the reader's failure unless one is already set.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.p = nil
}

// Byte decodes one byte.
func (r *Reader) Byte() byte {
	if len(r.p) == 0 {
		r.Fail(ErrCorrupt)
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

// Bool decodes a one-byte flag.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.Fail(ErrCorrupt)
		return 0
	}
	r.p = r.p[n:]
	return x
}

// Varint decodes a zigzag varint.
func (r *Reader) Varint() int64 {
	x, n := binary.Varint(r.p)
	if n <= 0 {
		r.Fail(ErrCorrupt)
		return 0
	}
	r.p = r.p[n:]
	return x
}

// Count decodes an element count. Every element takes at least one
// byte, so a count above the bytes left is corrupt: decoders size their
// allocations from it, and input must not choose them.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.p)) {
		r.Fail(fmt.Errorf("%w: count %d past the %d byte(s) left", ErrCorrupt, n, len(r.p)))
		return 0
	}
	return int(n)
}

// Str decodes a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if n > uint64(len(r.p)) {
		r.Fail(ErrCorrupt)
		return ""
	}
	s := string(r.p[:n])
	r.p = r.p[n:]
	return s
}

// Kind decodes an attribute kind written by name (Kind.String).
func (r *Reader) Kind() types.Kind {
	s := r.Str()
	if r.err != nil {
		return types.KindNull
	}
	k, err := types.ParseKind(s)
	if err != nil {
		r.Fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
	}
	return k
}

// Value decodes a tagged attribute value.
func (r *Reader) Value() types.Value {
	switch tag := r.Byte(); tag {
	case vkNull:
		return types.Null
	case vkInt:
		return types.Int(r.Varint())
	case vkFloat:
		if len(r.p) < 8 {
			r.Fail(ErrCorrupt)
			return types.Null
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(r.p[:8]))
		r.p = r.p[8:]
		return types.Float(f)
	case vkString:
		return types.String_(r.Str())
	case vkBool:
		return types.Bool(r.Bool())
	case vkTime:
		return types.TimeVal(clock.Time(r.Varint()))
	case vkOID:
		return types.Ref(types.OID(r.Varint()))
	default:
		r.Fail(fmt.Errorf("%w: unknown value tag %d", ErrCorrupt, tag))
		return types.Null
	}
}
