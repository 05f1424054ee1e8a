package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodePrimitives(t *testing.T) {
	e := NewEncoder(0)
	e.Byte(0xab)
	e.Bool(true)
	e.Bool(false)
	e.Uint16(0xbeef)
	e.Uint32(0xdeadbeef)
	e.Uint64(math.MaxUint64 - 7)
	e.Int64(-42)
	e.Float64(3.14159)
	e.Uvarint(1 << 40)
	e.Bytes([]byte("payload"))
	e.String("zugchain")
	e.Bytes32([32]byte{1, 2, 3})

	d := NewDecoder(e.Data())
	if got := d.Byte(); got != 0xab {
		t.Errorf("Byte() = %#x, want 0xab", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.Uint16(); got != 0xbeef {
		t.Errorf("Uint16() = %#x", got)
	}
	if got := d.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32() = %#x", got)
	}
	if got := d.Uint64(); got != math.MaxUint64-7 {
		t.Errorf("Uint64() = %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64() = %d", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64() = %v", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint() = %d", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte("payload")) {
		t.Errorf("Bytes() = %q", got)
	}
	if got := d.String(); got != "zugchain" {
		t.Errorf("String() = %q", got)
	}
	if got := d.Bytes32(); got != ([32]byte{1, 2, 3}) {
		t.Errorf("Bytes32() = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decoder error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining() = %d, want 0", d.Remaining())
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	tests := []struct {
		name string
		read func(d *Decoder)
	}{
		{"byte", func(d *Decoder) { d.Byte() }},
		{"uint16", func(d *Decoder) { d.Uint16() }},
		{"uint32", func(d *Decoder) { d.Uint32() }},
		{"uint64", func(d *Decoder) { d.Uint64() }},
		{"uvarint", func(d *Decoder) { d.Uvarint() }},
		{"bytes32", func(d *Decoder) { d.Bytes32() }},
		{"bytes", func(d *Decoder) { d.Bytes() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := NewDecoder(nil)
			tt.read(d)
			if !errors.Is(d.Err(), ErrShortBuffer) {
				t.Errorf("Err() = %v, want ErrShortBuffer", d.Err())
			}
		})
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	d.Uint64() // fails: only 2 bytes
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads must not clear or replace the error and must return
	// zero values even though two readable bytes remain.
	if got := d.Uint16(); got != 0 {
		t.Errorf("Uint16 after error = %d, want 0", got)
	}
	if d.Err() != first {
		t.Errorf("error replaced: %v", d.Err())
	}
}

func TestDecoderBytesLengthLimit(t *testing.T) {
	e := NewEncoder(0)
	e.Uvarint(MaxElementSize + 1)
	d := NewDecoder(e.Data())
	d.Bytes()
	if !errors.Is(d.Err(), ErrTooLarge) {
		t.Errorf("Err() = %v, want ErrTooLarge", d.Err())
	}
}

func TestBytesCopyDoesNotAlias(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes([]byte{10, 20, 30})
	input := e.Data()

	d := NewDecoder(input)
	got := d.BytesCopy()
	input[len(input)-1] = 99
	if got[2] != 30 {
		t.Errorf("BytesCopy aliases input: got %v", got)
	}
}

func TestBytesEmpty(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes(nil)
	e.Bytes([]byte{})
	d := NewDecoder(e.Data())
	if got := d.Bytes(); got != nil {
		t.Errorf("Bytes() = %v, want nil", got)
	}
	if got := d.BytesCopy(); got != nil {
		t.Errorf("BytesCopy() = %v, want nil", got)
	}
	if d.Err() != nil {
		t.Fatalf("unexpected error: %v", d.Err())
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(16)
	e.Uint64(7)
	e.Reset()
	if e.Len() != 0 {
		t.Errorf("Len() after Reset = %d", e.Len())
	}
	e.Byte(1)
	if !bytes.Equal(e.Data(), []byte{1}) {
		t.Errorf("Bytes() = %v", e.Data())
	}
}

func TestEncoderTruncate(t *testing.T) {
	e := NewEncoder(16)
	e.Byte(1)
	e.Byte(2)
	e.Byte(3)
	e.Truncate(1)
	if !bytes.Equal(e.Data(), []byte{1}) {
		t.Errorf("Data() after Truncate = %v, want [1]", e.Data())
	}
	// The encoder stays usable: appends continue from the cut point.
	e.Byte(9)
	if !bytes.Equal(e.Data(), []byte{1, 9}) {
		t.Errorf("Data() after append = %v, want [1 9]", e.Data())
	}
	e.Truncate(0)
	if e.Len() != 0 {
		t.Errorf("Len() after Truncate(0) = %d", e.Len())
	}
}

// Property: any (uint64, bytes, string) triple survives a round trip, and
// the encoding of the triple is a deterministic function of the values.
func TestRoundTripProperty(t *testing.T) {
	f := func(u uint64, b []byte, s string) bool {
		e1 := NewEncoder(0)
		e1.Uvarint(u)
		e1.Bytes(b)
		e1.String(s)
		e2 := NewEncoder(0)
		e2.Uvarint(u)
		e2.Bytes(b)
		e2.String(s)
		if !bytes.Equal(e1.Data(), e2.Data()) {
			return false // non-deterministic encoding
		}
		d := NewDecoder(e1.Data())
		gu := d.Uvarint()
		gb := d.Bytes()
		gs := d.String()
		return d.Err() == nil && gu == u && bytes.Equal(gb, b) && gs == s && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the decoder never panics on arbitrary input bytes, whatever the
// read sequence.
func TestDecoderNoPanicOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		d := NewDecoder(data)
		d.Uvarint()
		d.Bytes()
		d.Uint64()
		d.Bytes32()
		_ = d.String()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type testMsg struct {
	A uint64
	B []byte
}

const testMsgType Type = 0xfff0

func (m *testMsg) WireType() Type { return testMsgType }

func (m *testMsg) EncodeWire(e *Encoder) {
	e.Uint64(m.A)
	e.Bytes(m.B)
}

func (m *testMsg) DecodeWire(d *Decoder) {
	m.A = d.Uint64()
	m.B = d.BytesCopy()
}

func init() {
	Register(testMsgType, func() Message { return new(testMsg) })
}

func TestMarshalUnmarshal(t *testing.T) {
	in := &testMsg{A: 99, B: []byte("abc")}
	data := Marshal(in)
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	got, ok := out.(*testMsg)
	if !ok {
		t.Fatalf("Unmarshal returned %T", out)
	}
	if got.A != in.A || !bytes.Equal(got.B, in.B) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	t.Run("unknown type", func(t *testing.T) {
		e := NewEncoder(0)
		e.Uint16(0xffee)
		if _, err := Unmarshal(e.Data()); err == nil {
			t.Error("want error for unknown type")
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		data := Marshal(&testMsg{A: 1})
		data = append(data, 0x00)
		if _, err := Unmarshal(data); !errors.Is(err, ErrTrailingBytes) {
			t.Errorf("err = %v, want ErrTrailingBytes", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		data := Marshal(&testMsg{A: 1, B: []byte("xyz")})
		if _, err := Unmarshal(data[:len(data)-1]); err == nil {
			t.Error("want error for truncated body")
		}
	})
	t.Run("empty input", func(t *testing.T) {
		if _, err := Unmarshal(nil); err == nil {
			t.Error("want error for empty input")
		}
	})
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(testMsgType, func() Message { return new(testMsg) })
}

// TestDecoderNonCanonical checks that values with more than one plausible
// wire form are pinned to the one the encoder produces: zero-padded varints
// and boolean bytes other than 0/1 must be rejected, so a digest or
// signature over an encoding identifies exactly one value.
func TestDecoderNonCanonical(t *testing.T) {
	t.Run("padded uvarint", func(t *testing.T) {
		for _, in := range [][]byte{
			{0x80, 0x00},       // 0, padded to two bytes
			{0xb0, 0x00},       // 48, padded to two bytes
			{0x80, 0x80, 0x00}, // 0, padded to three bytes
			{0xff, 0x80, 0x00}, // 127, padded to three bytes
		} {
			d := NewDecoder(in)
			d.Uvarint()
			if !errors.Is(d.Err(), ErrNonCanonical) {
				t.Errorf("Uvarint(%x): err = %v, want ErrNonCanonical", in, d.Err())
			}
		}
	})
	t.Run("minimal uvarint still accepted", func(t *testing.T) {
		for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 20, math.MaxUint64} {
			e := NewEncoder(0)
			e.Uvarint(v)
			d := NewDecoder(e.Data())
			if got := d.Uvarint(); got != v || d.Err() != nil {
				t.Errorf("round trip %d: got %d, err %v", v, got, d.Err())
			}
		}
	})
	t.Run("bool", func(t *testing.T) {
		for b := 2; b < 256; b += 51 {
			d := NewDecoder([]byte{byte(b)})
			d.Bool()
			if !errors.Is(d.Err(), ErrNonCanonical) {
				t.Errorf("Bool(0x%02x): err = %v, want ErrNonCanonical", b, d.Err())
			}
		}
		for b, want := range map[byte]bool{0: false, 1: true} {
			d := NewDecoder([]byte{b})
			if got := d.Bool(); got != want || d.Err() != nil {
				t.Errorf("Bool(0x%02x) = %v, err %v", b, got, d.Err())
			}
		}
	})
}

func TestPooledEncoderStartsEmpty(t *testing.T) {
	e := GetEncoder()
	e.Bytes([]byte("left behind"))
	PutEncoder(e)
	for i := 0; i < 4; i++ {
		e := GetEncoder()
		if e.Len() != 0 {
			t.Fatalf("pooled encoder holds %d bytes", e.Len())
		}
		PutEncoder(e)
	}
}

func TestCloneIsExactAndOwned(t *testing.T) {
	e := NewEncoder(64)
	e.String("record")
	out := e.Clone()
	if !bytes.Equal(out, e.Data()) || cap(out) != len(out) {
		t.Fatalf("Clone = %x (cap %d), want %x at exact size", out, cap(out), e.Data())
	}
	e.Reset()
	e.String("RECORD")
	if string(out[1:]) != "record" {
		t.Fatalf("Clone aliases the encoder: %q", out)
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 35, math.MaxUint64} {
		e := NewEncoder(0)
		e.Uvarint(v)
		if got := UvarintLen(v); got != e.Len() {
			t.Errorf("UvarintLen(%d) = %d, encoding is %d bytes", v, got, e.Len())
		}
	}
}

// TestBytesOfMatchesBytes: a byte string encoded in place is byte-identical
// to the same content written with Bytes, on both sides of every varint
// length boundary.
func TestBytesOfMatchesBytes(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384} {
		content := bytes.Repeat([]byte{0xab}, n)
		var want, got Encoder
		want.Uint16(7)
		want.Bytes(content)
		want.Byte(9)
		got.Uint16(7)
		got.BytesOf(func(e *Encoder) { e.buf = append(e.buf, content...) })
		got.Byte(9)
		if !bytes.Equal(got.Data(), want.Data()) {
			t.Errorf("%d bytes: BytesOf differs from Bytes", n)
		}
	}
}
