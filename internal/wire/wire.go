// Package wire implements the deterministic binary encoding used for all
// ZugChain protocol messages.
//
// The encoding is deliberately simple: fixed-width little-endian integers,
// unsigned varints for lengths, and length-prefixed byte strings. Two
// properties matter and are guaranteed:
//
//   - Determinism: the same message always encodes to the same bytes, so
//     Ed25519 signatures can be computed over encoded messages.
//   - Self-description at the envelope level: a registered message carries a
//     type tag so a single Unmarshal entry point can decode any protocol
//     message received from the network.
//
// The paper's prototype exchanges Protobuf; this package is the stdlib-only
// equivalent.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Common encoding errors.
var (
	// ErrShortBuffer is returned when a decoder runs out of input bytes.
	ErrShortBuffer = errors.New("wire: short buffer")
	// ErrTooLarge is returned when a length prefix exceeds the decoder limit.
	ErrTooLarge = errors.New("wire: length exceeds limit")
	// ErrTrailingBytes is returned by Unmarshal when input remains after a
	// complete message has been decoded.
	ErrTrailingBytes = errors.New("wire: trailing bytes after message")
	// ErrNonCanonical is returned when input decodes to a value whose
	// re-encoding would differ from the input — a padded varint or an
	// out-of-range boolean byte. Rejecting these keeps every value to one
	// wire form, so digests and signatures over encodings are unambiguous.
	ErrNonCanonical = errors.New("wire: non-canonical encoding")
)

// MaxElementSize bounds any single length-prefixed element. It protects
// decoders against maliciously large length prefixes from Byzantine peers.
const MaxElementSize = 64 << 20 // 64 MiB

// Encoder appends primitive values to an internal buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Data returns the encoded buffer. The returned slice aliases the encoder's
// internal storage; callers must not retain it across further writes.
func (e *Encoder) Data() []byte { return e.buf }

// Len reports the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards all encoded data, retaining the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Truncate shortens the encoded data to n bytes, keeping the buffer for
// further writes. It panics if n is negative or beyond the current length.
// Used to rewrite a fixed tail in place — e.g. deriving signing bytes (empty
// signature) from a full message encoding without re-encoding the message.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// Clone returns a copy of the encoded data in storage of exactly its size,
// safe to retain after the encoder is reused.
func (e *Encoder) Clone() []byte {
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out
}

// maxPooledSize bounds the buffers PutEncoder keeps: a rare oversized
// encoding (a long state-transfer run, a huge batch) is left to the garbage
// collector rather than pinned in the pool for good.
const maxPooledSize = 1 << 20

var encoders = sync.Pool{
	New: func() any { return NewEncoder(512) },
}

// GetEncoder returns an empty encoder from a shared pool. Hashing, signing
// and marshalling paths encode into pooled encoders whose buffers have
// already grown to their steady-state size, so in steady state they
// allocate nothing. Return it with PutEncoder.
func GetEncoder() *Encoder {
	e := encoders.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns e to the pool. The caller must not use e, or any slice
// of its Data, afterwards.
func PutEncoder(e *Encoder) {
	if cap(e.buf) <= maxPooledSize {
		encoders.Put(e)
	}
}

// Encode returns what fn writes, encoded in a pooled encoder and copied out
// once at exact size: one allocation in steady state.
func Encode(fn func(e *Encoder)) []byte {
	e := GetEncoder()
	fn(e)
	out := e.Clone()
	PutEncoder(e)
	return out
}

// SigningBytesInto encodes the bytes a signature over m covers — m's
// enveloped encoding with its signature sig emptied — into e, which is reset
// first, and returns them. The result aliases e's buffer.
//
// sig must be m's final field, written with Bytes: the signing bytes are
// then the full encoding with the signature tail rewritten as a zero length
// prefix. m is never mutated, so goroutines may verify one message
// concurrently, and e may be a pooled encoder, so signing and verifying
// allocate nothing in steady state.
func SigningBytesInto(e *Encoder, m Message, sig []byte) []byte {
	e.Reset()
	e.Uint16(uint16(m.WireType()))
	m.EncodeWire(e)
	if len(sig) > 0 {
		e.Truncate(e.Len() - len(sig) - UvarintLen(uint64(len(sig))))
		e.Uvarint(0)
	}
	return e.Data()
}

// UvarintLen returns the encoded size of v as an unsigned varint.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Byte appends a single byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as one byte (0 or 1).
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
		return
	}
	e.Byte(0)
}

// Uint16 appends a fixed-width little-endian uint16.
func (e *Encoder) Uint16(v uint16) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
}

// Uint32 appends a fixed-width little-endian uint32.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// Uint64 appends a fixed-width little-endian uint64.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Int64 appends a fixed-width little-endian int64.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Float64 appends an IEEE-754 double in little-endian byte order.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Bytes32 appends a fixed 32-byte array without a length prefix.
func (e *Encoder) Bytes32(v [32]byte) { e.buf = append(e.buf, v[:]...) }

// Bytes appends a length-prefixed byte string.
func (e *Encoder) Bytes(v []byte) {
	e.Uvarint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// BytesOf appends a length-prefixed byte string whose content fn encodes in
// place, so a nested encoding needs no buffer of its own. The result is
// byte-identical to Bytes of the same content: fn's output is shifted to
// make room for the minimal length prefix once its length is known.
func (e *Encoder) BytesOf(fn func(e *Encoder)) {
	at := len(e.buf)
	fn(e)
	n := len(e.buf) - at
	k := UvarintLen(uint64(n))
	e.buf = append(e.buf, make([]byte, k)...)
	copy(e.buf[at+k:], e.buf[at:at+n])
	binary.PutUvarint(e.buf[at:], uint64(n))
}

// String appends a length-prefixed string.
func (e *Encoder) String(v string) {
	e.Uvarint(uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Decoder reads primitive values from a byte slice. Errors are sticky: after
// the first failure all further reads return zero values and Err reports the
// original error. This lets message decoders chain reads and check once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf;
// decoded byte strings alias it unless otherwise documented.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf}
}

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the number of bytes left to decode.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Fail records err as the decoder's error unless an earlier one is already
// recorded. Codecs built on the decoder use it to reject input that is
// well-formed byte by byte but invalid for them, such as a count larger
// than the bytes left.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes or records ErrShortBuffer.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.Fail(ErrShortBuffer)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Byte reads a single byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean encoded as one byte. Only 0 and 1 are accepted —
// Encoder.Bool never writes anything else, and admitting other bytes would
// give true a second wire form (ErrNonCanonical).
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Fail(ErrNonCanonical)
		return false
	}
}

// Uint16 reads a fixed-width little-endian uint16.
func (d *Decoder) Uint16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// Uint32 reads a fixed-width little-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a fixed-width little-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads a fixed-width little-endian int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Uvarint reads an unsigned varint. Only the minimal encoding is accepted:
// binary.Uvarint also consumes zero-padded forms (0x80 0x00 for 0), which
// would let one value travel under several wire encodings (ErrNonCanonical).
// A minimal varint's final byte is nonzero unless the whole value is one
// byte.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Fail(ErrShortBuffer)
		return 0
	}
	if n > 1 && d.buf[d.off+n-1] == 0 {
		d.Fail(ErrNonCanonical)
		return 0
	}
	d.off += n
	return v
}

// Bytes32 reads a fixed 32-byte array.
func (d *Decoder) Bytes32() (v [32]byte) {
	b := d.take(32)
	if b != nil {
		copy(v[:], b)
	}
	return v
}

// Bytes reads a length-prefixed byte string. The result aliases the input
// buffer, so it suits only bytes used before that buffer is reused: a
// message decoder (DecodeWire) must keep byte strings with BytesCopy, because
// transports lend each inbound frame only for the handler call. A nil slice
// is returned for zero-length strings.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n > MaxElementSize {
		d.Fail(fmt.Errorf("%w: %d bytes", ErrTooLarge, n))
		return nil
	}
	b := d.take(int(n))
	if len(b) == 0 {
		return nil
	}
	return b
}

// BytesCopy reads a length-prefixed byte string into freshly allocated
// storage, safe to retain after the input buffer is reused.
func (d *Decoder) BytesCopy() []byte {
	b := d.Bytes()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	return string(d.Bytes())
}
