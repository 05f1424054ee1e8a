// Package export implements ZugChain's secure data-center export protocol
// (§III-D, Fig 4). Data centers pull blocks from the on-train replicas over
// a bandwidth-limited uplink, validate them against stable PBFT checkpoints
// (2f+1 replica signatures), synchronize among each other, and authorize
// pruning with signed delete messages. Export deliberately bypasses the
// consensus protocol — it reads stable checkpoints only — so it can never
// delay agreement.
package export

import (
	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/pbft"
	"zugchain/internal/wire"
)

// Wire type tags for export messages (range 0x40–0x4f).
const (
	typeReadRequest wire.Type = 0x40 + iota
	typeReadReply
	typeDelete
	typeDeleteAck
	typeStateRequest
	typeStateReply
)

func init() {
	wire.Register(typeReadRequest, func() wire.Message { return new(ReadRequest) })
	wire.Register(typeReadReply, func() wire.Message { return new(ReadReply) })
	wire.Register(typeDelete, func() wire.Message { return new(Delete) })
	wire.Register(typeDeleteAck, func() wire.Message { return new(DeleteAck) })
	wire.Register(typeStateRequest, func() wire.Message { return new(StateRequest) })
	wire.Register(typeStateReply, func() wire.Message { return new(StateReply) })
}

// ReadRequest is step ① of Fig 4: a data center asks the replicas for the
// latest stable checkpoint, carrying the index of its last successfully
// exported block (last_sn). WantBlocks marks the one randomly chosen
// replica that must also stream the full blocks.
type ReadRequest struct {
	// Round correlates replies with this request.
	Round uint64
	// LastIndex is the last block index the data center holds.
	LastIndex uint64
	// WantBlocks selects this replica as the full-block source.
	WantBlocks bool
	// DC identifies and Sig authenticates the requesting data center.
	DC  crypto.NodeID
	Sig []byte
}

// WireType implements wire.Message.
func (m *ReadRequest) WireType() wire.Type { return typeReadRequest }

// EncodeWire implements wire.Message.
func (m *ReadRequest) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.Round)
	e.Uint64(m.LastIndex)
	e.Bool(m.WantBlocks)
	e.Uint32(uint32(m.DC))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *ReadRequest) DecodeWire(d *wire.Decoder) {
	m.Round = d.Uint64()
	m.LastIndex = d.Uint64()
	m.WantBlocks = d.Bool()
	m.DC = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// ReadReply is step ② of Fig 4: a replica's latest stable checkpoint, plus
// the requested full blocks when this replica was chosen as the source.
type ReadReply struct {
	Round uint64
	// BlockIndex is the block the checkpoint covers.
	BlockIndex uint64
	// Ckpt is the stable checkpoint proof (2f+1 signatures).
	Ckpt pbft.CheckpointProof
	// Blocks are the blocks LastIndex+1 .. BlockIndex, sent as one compact
	// run (blockchain.EncodeRun); empty unless WantBlocks was set.
	Blocks []*blockchain.Block
	// FirstAvailable is the replica's pruning base: blocks below it are
	// gone from this replica (export error (iv)).
	FirstAvailable uint64
	Replica        crypto.NodeID
	Sig            []byte
}

// WireType implements wire.Message.
func (m *ReadReply) WireType() wire.Type { return typeReadReply }

// EncodeWire implements wire.Message.
func (m *ReadReply) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.Round)
	e.Uint64(m.BlockIndex)
	encodeProof(e, &m.Ckpt)
	blockchain.EncodeRun(e, m.Blocks)
	e.Uint64(m.FirstAvailable)
	e.Uint32(uint32(m.Replica))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *ReadReply) DecodeWire(d *wire.Decoder) {
	m.Round = d.Uint64()
	m.BlockIndex = d.Uint64()
	m.Ckpt = decodeProof(d)
	m.Blocks = blockchain.DecodeRun(d)
	m.FirstAvailable = d.Uint64()
	m.Replica = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// Delete is step ⑤ of Fig 4: a data center confirms it holds all blocks up
// to BlockIndex (with BlockHash from the latest stable checkpoint) and
// authorizes the replicas to prune.
type Delete struct {
	BlockIndex uint64
	BlockHash  crypto.Digest
	DC         crypto.NodeID
	Sig        []byte
}

// WireType implements wire.Message.
func (m *Delete) WireType() wire.Type { return typeDelete }

// EncodeWire implements wire.Message.
func (m *Delete) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.BlockIndex)
	e.Bytes32(m.BlockHash)
	e.Uint32(uint32(m.DC))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *Delete) DecodeWire(d *wire.Decoder) {
	m.BlockIndex = d.Uint64()
	m.BlockHash = d.Bytes32()
	m.DC = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// DeleteAck is step ⑦ of Fig 4: a replica confirms it executed the delete
// up to BlockIndex. Its absence lets maintenance detect replicas that failed
// to free memory (§III-D error (v)).
type DeleteAck struct {
	BlockIndex uint64
	Replica    crypto.NodeID
	Sig        []byte
}

// WireType implements wire.Message.
func (m *DeleteAck) WireType() wire.Type { return typeDeleteAck }

// EncodeWire implements wire.Message.
func (m *DeleteAck) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.BlockIndex)
	e.Uint32(uint32(m.Replica))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *DeleteAck) DecodeWire(d *wire.Decoder) {
	m.BlockIndex = d.Uint64()
	m.Replica = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// StateRequest asks a peer replica for the blocks needed to catch up after
// falling behind a stable checkpoint (§III-D error (ii): a checkpoint is
// transferred to another replica together with the blocks and the deletes
// justifying a pruned base).
type StateRequest struct {
	FromIndex uint64
	Replica   crypto.NodeID
	Sig       []byte
}

// WireType implements wire.Message.
func (m *StateRequest) WireType() wire.Type { return typeStateRequest }

// EncodeWire implements wire.Message.
func (m *StateRequest) EncodeWire(e *wire.Encoder) {
	e.Uint64(m.FromIndex)
	e.Uint32(uint32(m.Replica))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *StateRequest) DecodeWire(d *wire.Decoder) {
	m.FromIndex = d.Uint64()
	m.Replica = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// StateReply carries the blocks for a state transfer, as one compact run
// (blockchain.EncodeRun), plus the prune authorization for the sender's base.
type StateReply struct {
	Blocks    []*blockchain.Block
	PruneAuth []byte
	Replica   crypto.NodeID
	Sig       []byte
}

// WireType implements wire.Message.
func (m *StateReply) WireType() wire.Type { return typeStateReply }

// EncodeWire implements wire.Message.
func (m *StateReply) EncodeWire(e *wire.Encoder) {
	blockchain.EncodeRun(e, m.Blocks)
	e.Bytes(m.PruneAuth)
	e.Uint32(uint32(m.Replica))
	e.Bytes(m.Sig)
}

// DecodeWire implements wire.Message.
func (m *StateReply) DecodeWire(d *wire.Decoder) {
	m.Blocks = blockchain.DecodeRun(d)
	m.PruneAuth = d.BytesCopy()
	m.Replica = crypto.NodeID(d.Uint32())
	m.Sig = d.BytesCopy()
}

// DeleteCertificate is the quorum of signed deletes a replica stores as
// pruning authorization (persisted by the blockchain store so a pruned
// chain can justify its base).
type DeleteCertificate struct {
	BlockIndex uint64
	BlockHash  crypto.Digest
	Deletes    []Delete
}

// Marshal encodes the certificate.
func (c *DeleteCertificate) Marshal() []byte {
	e := wire.NewEncoder(128)
	e.Uint64(c.BlockIndex)
	e.Bytes32(c.BlockHash)
	e.Uvarint(uint64(len(c.Deletes)))
	for i := range c.Deletes {
		c.Deletes[i].EncodeWire(e)
	}
	return e.Data()
}

// UnmarshalDeleteCertificate decodes a certificate.
func UnmarshalDeleteCertificate(data []byte) (*DeleteCertificate, error) {
	d := wire.NewDecoder(data)
	c := &DeleteCertificate{
		BlockIndex: d.Uint64(),
		BlockHash:  d.Bytes32(),
	}
	n := d.Uvarint()
	if n > 1024 {
		return nil, wire.ErrTooLarge
	}
	for i := uint64(0); i < n; i++ {
		var del Delete
		del.DecodeWire(d)
		c.Deletes = append(c.Deletes, del)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// Verify checks that the certificate carries at least quorum valid delete
// signatures from distinct data centers over (BlockIndex, BlockHash).
func (c *DeleteCertificate) Verify(reg *crypto.Registry, quorum int) error {
	seen := make(map[crypto.NodeID]bool, len(c.Deletes))
	valid := 0
	for i := range c.Deletes {
		del := c.Deletes[i]
		if del.BlockIndex != c.BlockIndex || del.BlockHash != c.BlockHash {
			continue
		}
		if seen[del.DC] {
			continue
		}
		if err := verifyMsg(&del, reg); err != nil {
			continue
		}
		seen[del.DC] = true
		valid++
	}
	if valid < quorum {
		return ErrInsufficientDeletes
	}
	return nil
}

// encodeProof and decodeProof serialize a pbft.CheckpointProof inside export
// messages.
func encodeProof(e *wire.Encoder, p *pbft.CheckpointProof) {
	e.Uint64(p.Seq)
	e.Bytes32(p.StateDigest)
	e.Uvarint(uint64(len(p.Checkpoints)))
	for i := range p.Checkpoints {
		p.Checkpoints[i].EncodeWire(e)
	}
}

func decodeProof(d *wire.Decoder) pbft.CheckpointProof {
	p := pbft.CheckpointProof{
		Seq:         d.Uint64(),
		StateDigest: d.Bytes32(),
	}
	n := d.Uvarint()
	if n > 1024 {
		d.Bytes32()
		return p
	}
	for i := uint64(0); i < n; i++ {
		var c pbft.Checkpoint
		c.DecodeWire(d)
		p.Checkpoints = append(p.Checkpoints, c)
	}
	return p
}
