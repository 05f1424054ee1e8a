package wal

import (
	"fmt"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// Kind identifies what protocol event a Record captures. The WAL itself
// treats records as opaque; these kinds are the vocabulary the PBFT layer
// writes and the node's recovery path interprets.
type Kind uint8

const (
	// KindView records the replica's view state: View is the active view,
	// Seq carries the highest view a ViewChange was sent for, and Flag
	// whether a view change was in progress.
	KindView Kind = 1
	// KindPrePrepare, KindPrepare and KindCommit pin the digest this
	// replica vouched for at (View, Seq) — written before the message is
	// sent so a restarted replica cannot equivocate on the slot.
	KindPrePrepare Kind = 2
	KindPrepare    Kind = 3
	KindCommit     Kind = 4
	// KindCheckpoint carries an encoded stable checkpoint proof in Data.
	KindCheckpoint Kind = 5
	// KindDedup records one communication-layer dedup window entry:
	// payload digest Digest was decided at sequence Seq.
	KindDedup Kind = 6
	// KindPreparedCert carries an encoded prepared certificate (the
	// accepted PrePrepare plus 2f matching Prepares) in Data — the
	// view-change P set entry for (View, Seq), written when the slot
	// reaches prepared.
	KindPreparedCert Kind = 7
)

// Record is one durable WAL entry. Field meaning depends on Kind; unused
// fields are zero.
type Record struct {
	Kind   Kind
	View   uint64
	Seq    uint64
	Digest crypto.Digest
	Flag   bool
	Data   []byte
	// Body, when non-nil, is written in place of Data: its encoding is the
	// record's Data, framed straight into the log without a copy of its
	// own. Replay returns it as Data.
	Body Body
}

// Body is a record's Data given as a value that encodes itself, such as a
// certificate.
type Body interface {
	EncodeTo(e *wire.Encoder)
}

// appendRecord encodes r as one payload (no frame) onto enc.
func appendRecord(enc *wire.Encoder, r *Record) {
	enc.Byte(byte(r.Kind))
	enc.Uvarint(r.View)
	enc.Uvarint(r.Seq)
	enc.Bytes32(r.Digest)
	enc.Bool(r.Flag)
	if r.Body != nil {
		enc.BytesOf(r.Body.EncodeTo)
		return
	}
	enc.Bytes(r.Data)
}

// DecodeRecord decodes one record payload produced by appendRecord. It is
// exported for the fuzz harness; the framing layer guarantees payload
// integrity via CRC before this runs.
func DecodeRecord(payload []byte) (Record, error) {
	d := wire.NewDecoder(payload)
	r := Record{
		Kind:   Kind(d.Byte()),
		View:   d.Uvarint(),
		Seq:    d.Uvarint(),
		Digest: d.Bytes32(),
		Flag:   d.Bool(),
	}
	r.Data = d.BytesCopy()
	if err := d.Err(); err != nil {
		return Record{}, err
	}
	if d.Remaining() != 0 {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after record", d.Remaining())
	}
	if r.Kind < KindView || r.Kind > KindPreparedCert {
		return Record{}, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	return r, nil
}

// EncodeRecord returns the standalone payload encoding of r (no frame).
// Exported for the fuzz harness as the round-trip counterpart of
// DecodeRecord.
func EncodeRecord(r Record) []byte {
	enc := wire.NewEncoder(64 + len(r.Data))
	appendRecord(enc, &r)
	return enc.Clone()
}
