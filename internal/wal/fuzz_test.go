package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the record decoder: it must never
// panic, and everything it accepts must re-encode to the identical payload
// (the decoder and encoder agree on one canonical form).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRecord(Record{Kind: KindView, View: 3, Seq: 7}))
	f.Add(EncodeRecord(Record{Kind: KindCheckpoint, Seq: 100, Data: []byte("proof")}))
	f.Add(EncodeRecord(Record{Kind: KindDedup, Seq: 42, Flag: true}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		round := EncodeRecord(r)
		if !bytes.Equal(round, data) {
			t.Fatalf("accepted non-canonical encoding:\n in: %x\nout: %x", data, round)
		}
	})
}

// FuzzFrameDecode exercises the CRC framing layer the same way: arbitrary
// bytes must never panic, and any frame it accepts must decode to a record
// the framer can reproduce.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := ReadFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("frame consumed %d of %d bytes", n, len(data))
		}
		r, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		if _, err := DecodeRecord(EncodeRecord(r)); err != nil {
			t.Fatalf("accepted frame re-encodes invalid: %v", err)
		}
	})
}
