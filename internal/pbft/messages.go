package pbft

import (
	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// Wire type tags for PBFT messages (range 0x10–0x2f, see wire.Type).
const (
	typePrePrepare wire.Type = 0x10 + iota
	typePrepare
	typeCommit
	typeCheckpoint
	typeViewChange
	typeNewView
	typePrePrepareRef
	typePrePrepareFetch
)

func init() {
	wire.Register(typePrePrepare, func() wire.Message { return new(PrePrepare) })
	wire.Register(typePrepare, func() wire.Message { return new(Prepare) })
	wire.Register(typeCommit, func() wire.Message { return new(Commit) })
	wire.Register(typeCheckpoint, func() wire.Message { return new(Checkpoint) })
	wire.Register(typeViewChange, func() wire.Message { return new(ViewChange) })
	wire.Register(typeNewView, func() wire.Message { return new(NewView) })
	wire.Register(typePrePrepareRef, func() wire.Message { return new(PrePrepareRef) })
	wire.Register(typePrePrepareFetch, func() wire.Message { return new(PrePrepareFetch) })
}

// Request is the unit of agreement: one bus cycle's consolidated signals,
// signed by the node that read them (Algorithm 1: r ← sign(req, id)), or —
// with Batch set — a coalesced batch of such records proposed as one
// ordering instance. PBFT orders requests without interpreting the payload.
type Request struct {
	// Payload is the marshalled signal record, or an EncodeBatch payload
	// when Batch is set.
	Payload []byte
	// Origin identifies the node that received the data from the bus; for
	// a batch, the primary that assembled it. Decided requests are logged
	// together with this id (§III-C).
	Origin crypto.NodeID
	// Sig is Origin's signature over the payload digest, origin id and
	// batch flag.
	Sig []byte
	// Batch marks Payload as an encoded batch (see EncodeBatch). The flag
	// is signed, so a relay cannot reinterpret a record as a batch or vice
	// versa without invalidating Sig.
	Batch bool
}

// PayloadDigest identifies the request content for duplicate filtering. Two
// requests with equal payloads are duplicates even if different nodes signed
// them — exactly the paper's payload-based filtering.
func (r *Request) PayloadDigest() crypto.Digest {
	return crypto.Hash(r.Payload)
}

// signingBytesInto encodes the bytes covered by Sig into e and returns
// them; the result aliases e's buffer.
func (r *Request) signingBytesInto(e *wire.Encoder) []byte {
	e.Bytes32(r.PayloadDigest())
	e.Uint32(uint32(r.Origin))
	e.Bool(r.Batch)
	return e.Data()
}

// signingBytes returns an owned copy of the bytes covered by Sig.
func (r *Request) signingBytes() []byte {
	return r.signingBytesInto(wire.NewEncoder(48))
}

// SignRequest fills in r.Sig using the origin's key pair.
func SignRequest(r *Request, kp *crypto.KeyPair) {
	r.Origin = kp.ID
	e := wire.GetEncoder()
	r.Sig = kp.Sign(r.signingBytesInto(e))
	wire.PutEncoder(e)
}

// VerifyRequest checks r.Sig against the origin's registered key.
func VerifyRequest(r *Request, reg *crypto.Registry) error {
	e := wire.GetEncoder()
	err := reg.Verify(r.Origin, r.signingBytesInto(e), r.Sig)
	wire.PutEncoder(e)
	return err
}

// Digest is the full-request identity used by the three-phase protocol.
// It covers payload, origin and signature, so a Byzantine primary cannot
// equivocate between two variants of "the same" request within one slot.
// The encoding is hashed in a pooled encoder, so in steady state Digest
// allocates nothing.
func (r *Request) Digest() crypto.Digest {
	e := wire.GetEncoder()
	r.encodeTo(e)
	d := crypto.Hash(e.Data())
	wire.PutEncoder(e)
	return d
}

// IsNull reports whether this is a gap-filling null request, which is
// ordered but never delivered to the application.
func (r *Request) IsNull() bool { return len(r.Payload) == 0 }

func (r *Request) encodeTo(e *wire.Encoder) {
	e.Bytes(r.Payload)
	e.Uint32(uint32(r.Origin))
	e.Bool(r.Batch)
	e.Bytes(r.Sig)
}

func decodeRequest(d *wire.Decoder) Request {
	return Request{
		Payload: d.BytesCopy(),
		Origin:  crypto.NodeID(d.Uint32()),
		Batch:   d.Bool(),
		Sig:     d.BytesCopy(),
	}
}

// PrePrepare is the primary's ordering proposal assigning Seq to Req in View.
type PrePrepare struct {
	View    uint64
	Seq     uint64
	Req     Request
	Replica crypto.NodeID
	Sig     []byte
}

// WireType implements wire.Message.
func (m *PrePrepare) WireType() wire.Type { return typePrePrepare }

// EncodeWire implements wire.Message.
func (m *PrePrepare) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.View)
	e.Uint64(m.Seq)
	m.Req.encodeTo(e)
	e.Uint32(uint32(m.Replica))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *PrePrepare) DecodeWire(d *wire.Decoder) {
	m.View = d.Uint64()
	m.Seq = d.Uint64()
	m.Req = decodeRequest(d)
	m.Replica = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// Prepare confirms a backup received the primary's assignment.
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  crypto.Digest
	Replica crypto.NodeID
	Sig     []byte
}

// WireType implements wire.Message.
func (m *Prepare) WireType() wire.Type { return typePrepare }

// EncodeWire implements wire.Message.
func (m *Prepare) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.View)
	e.Uint64(m.Seq)
	e.Bytes32(m.Digest)
	e.Uint32(uint32(m.Replica))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *Prepare) DecodeWire(d *wire.Decoder) {
	m.View = d.Uint64()
	m.Seq = d.Uint64()
	m.Digest = d.Bytes32()
	m.Replica = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// Commit finalizes the acceptance of the assigned order. It is the one
// phase message that is not signed: MAC is a crypto.MACSize tag under the
// pairwise key of Replica and the receiver, so each receiver gets its own
// encoding and no third party can check it (auth.go, DESIGN.md §3.18).
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  crypto.Digest
	Replica crypto.NodeID
	MAC     []byte
}

// WireType implements wire.Message.
func (m *Commit) WireType() wire.Type { return typeCommit }

// EncodeWire implements wire.Message.
func (m *Commit) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.View)
	e.Uint64(m.Seq)
	e.Bytes32(m.Digest)
	e.Uint32(uint32(m.Replica))
	e.Bytes(m.MAC)
}

// DecodeWire implements wire.Message.
func (m *Commit) DecodeWire(d *wire.Decoder) {
	m.View = d.Uint64()
	m.Seq = d.Uint64()
	m.Digest = d.Bytes32()
	m.Replica = crypto.NodeID(d.Uint32())
	m.MAC = d.BytesCopy()
}

// Checkpoint attests that the sender's application state after executing Seq
// has digest StateDigest. In ZugChain the state digest is the hash of the
// block containing the requests up to Seq, so a stable checkpoint doubles as
// a transferable block proof for the export protocol (§III-C Checkpointing).
type Checkpoint struct {
	Seq         uint64
	StateDigest crypto.Digest
	Replica     crypto.NodeID
	Sig         []byte
}

// WireType implements wire.Message.
func (m *Checkpoint) WireType() wire.Type { return typeCheckpoint }

// EncodeWire implements wire.Message.
func (m *Checkpoint) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.Seq)
	e.Bytes32(m.StateDigest)
	e.Uint32(uint32(m.Replica))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *Checkpoint) DecodeWire(d *wire.Decoder) {
	m.Seq = d.Uint64()
	m.StateDigest = d.Bytes32()
	m.Replica = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// CheckpointProof is a stable checkpoint: 2f+1 matching signed Checkpoint
// messages. It proves to any third party — including the data centers — that
// the block with StateDigest is part of the agreed chain.
type CheckpointProof struct {
	Seq         uint64
	StateDigest crypto.Digest
	Checkpoints []Checkpoint
}

// Verify checks the proof against the replica registry: at least quorum
// matching, correctly signed checkpoint messages from distinct replicas.
func (p *CheckpointProof) Verify(reg *crypto.Registry, quorum int) error {
	return verifyCheckpointSet(p.Seq, p.StateDigest, p.Checkpoints, reg, quorum)
}

// EncodeTo appends the proof's encoding, as a ViewChange carries it and the
// WAL stores it (DecodeCheckpointProof), to e.
func (p *CheckpointProof) EncodeTo(e *wire.Encoder) {
	e.Uint64(p.Seq)
	e.Bytes32(p.StateDigest)
	e.Uvarint(uint64(len(p.Checkpoints)))
	for i := range p.Checkpoints {
		p.Checkpoints[i].EncodeWire(e)
	}
}

func decodeCheckpointProof(d *wire.Decoder) CheckpointProof {
	p := CheckpointProof{
		Seq:         d.Uint64(),
		StateDigest: d.Bytes32(),
	}
	n := d.Uvarint()
	if n > 1024 {
		// More checkpoint signatures than any sane cluster size: poison
		// the decoder rather than allocating.
		d.Bytes32() // forces ErrShortBuffer on empty remainder
		return p
	}
	for i := uint64(0); i < n; i++ {
		var c Checkpoint
		c.DecodeWire(d)
		p.Checkpoints = append(p.Checkpoints, c)
	}
	return p
}

// PreparedProof certifies that a request was prepared at (View, Seq): the
// accepted PrePrepare plus 2f matching Prepare messages (the P set entries
// of a PBFT view change).
type PreparedProof struct {
	PrePrepare PrePrepare
	Prepares   []Prepare
}

// EncodeTo appends the certificate's encoding, as a ViewChange carries it
// and the WAL stores it (DecodePreparedProof), to e.
func (p *PreparedProof) EncodeTo(e *wire.Encoder) {
	p.PrePrepare.EncodeWire(e)
	e.Uvarint(uint64(len(p.Prepares)))
	for i := range p.Prepares {
		p.Prepares[i].EncodeWire(e)
	}
}

func decodePreparedProof(d *wire.Decoder) PreparedProof {
	var p PreparedProof
	p.PrePrepare.DecodeWire(d)
	n := d.Uvarint()
	if n > 1024 {
		d.Bytes32()
		return p
	}
	for i := uint64(0); i < n; i++ {
		var pr Prepare
		pr.DecodeWire(d)
		p.Prepares = append(p.Prepares, pr)
	}
	return p
}

// ViewChange announces that the sender wants to move to NewView, carrying
// its last stable checkpoint proof and all requests prepared above it.
type ViewChange struct {
	NewView    uint64
	StableSeq  uint64
	StableCkpt CheckpointProof // empty Checkpoints at StableSeq 0 (genesis)
	Prepared   []PreparedProof
	Replica    crypto.NodeID
	Sig        []byte
}

// WireType implements wire.Message.
func (m *ViewChange) WireType() wire.Type { return typeViewChange }

// EncodeWire implements wire.Message.
func (m *ViewChange) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.NewView)
	e.Uint64(m.StableSeq)
	m.StableCkpt.EncodeTo(e)
	e.Uvarint(uint64(len(m.Prepared)))
	for i := range m.Prepared {
		m.Prepared[i].EncodeTo(e)
	}
	e.Uint32(uint32(m.Replica))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *ViewChange) DecodeWire(d *wire.Decoder) {
	m.NewView = d.Uint64()
	m.StableSeq = d.Uint64()
	m.StableCkpt = decodeCheckpointProof(d)
	n := d.Uvarint()
	if n > 65536 {
		d.Bytes32()
		return
	}
	for i := uint64(0); i < n; i++ {
		m.Prepared = append(m.Prepared, decodePreparedProof(d))
	}
	m.Replica = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// NewView is the new primary's installation message: the 2f+1 view changes
// that justify the view and the re-issued pre-prepares for in-flight slots.
type NewView struct {
	View        uint64
	ViewChanges []ViewChange
	PrePrepares []PrePrepare
	Replica     crypto.NodeID
	Sig         []byte
}

// WireType implements wire.Message.
func (m *NewView) WireType() wire.Type { return typeNewView }

// EncodeWire implements wire.Message.
func (m *NewView) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.View)
	e.Uvarint(uint64(len(m.ViewChanges)))
	for i := range m.ViewChanges {
		m.ViewChanges[i].EncodeWire(e)
	}
	e.Uvarint(uint64(len(m.PrePrepares)))
	for i := range m.PrePrepares {
		m.PrePrepares[i].EncodeWire(e)
	}
	e.Uint32(uint32(m.Replica))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *NewView) DecodeWire(d *wire.Decoder) {
	m.View = d.Uint64()
	n := d.Uvarint()
	if n > 1024 {
		d.Bytes32()
		return
	}
	for i := uint64(0); i < n; i++ {
		var vc ViewChange
		vc.DecodeWire(d)
		m.ViewChanges = append(m.ViewChanges, vc)
	}
	n = d.Uvarint()
	if n > 65536 {
		d.Bytes32()
		return
	}
	for i := uint64(0); i < n; i++ {
		var pp PrePrepare
		pp.DecodeWire(d)
		m.PrePrepares = append(m.PrePrepares, pp)
	}
	m.Replica = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// NewSignedCheckpoint builds a signed checkpoint message, used by the node
// and test code to assemble checkpoint proofs outside the engine.
func NewSignedCheckpoint(seq uint64, digest crypto.Digest, kp *crypto.KeyPair) Checkpoint {
	c := Checkpoint{Seq: seq, StateDigest: digest, Replica: kp.ID}
	sign(&c, kp)
	return c
}
