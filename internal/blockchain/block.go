// Package blockchain implements ZugChain's tamper-evident log: ordered
// requests are deterministically bundled into hash-chained blocks (§III-A
// "From Signals to Blocks", §III-C "Blockchain Application"), persisted to
// disk, and pruned after export. A block's hash doubles as the PBFT
// checkpoint state digest, so every block is backed by 2f+1 replica
// signatures once its checkpoint stabilizes.
package blockchain

import (
	"errors"
	"fmt"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// Entry is one totally ordered request as recorded in a block: the payload,
// the id of the node that read it from the bus (§III-C: "each request is
// logged in conjunction with the id of a node that has actually received
// it"), the origin's signature, and the agreement sequence number.
type Entry struct {
	Seq     uint64
	Origin  crypto.NodeID
	Payload []byte
	Sig     []byte
}

func (e *Entry) encodeTo(enc *wire.Encoder) {
	enc.Uint64(e.Seq)
	enc.Uint32(uint32(e.Origin))
	enc.Bytes(e.Payload)
	enc.Bytes(e.Sig)
}

func decodeEntry(d *wire.Decoder) Entry {
	return Entry{
		Seq:     d.Uint64(),
		Origin:  crypto.NodeID(d.Uint32()),
		Payload: d.BytesCopy(),
		Sig:     d.BytesCopy(),
	}
}

// Header is the constant-size part of a block, sufficient for chain
// verification once bodies have been compacted away (§III-D error (v)).
type Header struct {
	// Index is the block height; the genesis block has index 0.
	Index uint64
	// PrevHash links to the previous block.
	PrevHash crypto.Digest
	// FirstSeq and LastSeq are the agreement sequence numbers covered.
	FirstSeq, LastSeq uint64
	// BodyHash commits to the entries.
	BodyHash crypto.Digest
}

func (h *Header) encodeTo(e *wire.Encoder) {
	e.Uint64(h.Index)
	e.Bytes32(h.PrevHash)
	e.Uint64(h.FirstSeq)
	e.Uint64(h.LastSeq)
	e.Bytes32(h.BodyHash)
}

// Hash computes the block hash: the chain link and the PBFT checkpoint
// state digest.
func (h *Header) Hash() crypto.Digest {
	e := wire.GetEncoder()
	h.encodeTo(e)
	d := crypto.Hash(e.Data())
	wire.PutEncoder(e)
	return d
}

// Block is a sealed bundle of ordered entries.
type Block struct {
	Header
	Entries []Entry
}

func encodeEntries(e *wire.Encoder, entries []Entry) {
	e.Uvarint(uint64(len(entries)))
	for i := range entries {
		entries[i].encodeTo(e)
	}
}

// BodyDigest computes the commitment over the entries. It hashes their
// encoding in a pooled encoder, so in steady state it allocates nothing.
func BodyDigest(entries []Entry) crypto.Digest {
	e := wire.GetEncoder()
	encodeEntries(e, entries)
	d := crypto.Hash(e.Data())
	wire.PutEncoder(e)
	return d
}

// Genesis returns the fixed genesis block shared by all replicas.
func Genesis() *Block {
	b := &Block{}
	b.BodyHash = BodyDigest(nil)
	return b
}

// Validate checks the block's internal consistency: the body hash matches
// the entries and the sequence range matches their contents.
func (b *Block) Validate() error {
	if BodyDigest(b.Entries) != b.BodyHash {
		return fmt.Errorf("blockchain: block %d body hash mismatch", b.Index)
	}
	return b.validateSeqs()
}

// validateSeqs checks that the sequence range matches the entries and that
// they are in agreement order.
func (b *Block) validateSeqs() error {
	if len(b.Entries) > 0 {
		if b.Entries[0].Seq != b.FirstSeq || b.Entries[len(b.Entries)-1].Seq != b.LastSeq {
			return fmt.Errorf("blockchain: block %d sequence range mismatch", b.Index)
		}
		for i := 1; i < len(b.Entries); i++ {
			// Non-decreasing, not strictly increasing: records decided as
			// one batched proposal share a single agreement sequence number.
			if b.Entries[i].Seq < b.Entries[i-1].Seq {
				return fmt.Errorf("blockchain: block %d entries out of order", b.Index)
			}
		}
	}
	return nil
}

// Marshal encodes the block for storage or transmission, allocating the
// result once at its exact size.
func (b *Block) Marshal() []byte {
	return wire.Encode(func(e *wire.Encoder) {
		b.Header.encodeTo(e)
		encodeEntries(e, b.Entries)
	})
}

// Unmarshal decodes a block encoded by Marshal.
func Unmarshal(data []byte) (*Block, error) {
	d := wire.NewDecoder(data)
	b := &Block{Header: Header{
		Index:    d.Uint64(),
		PrevHash: d.Bytes32(),
		FirstSeq: d.Uint64(),
		LastSeq:  d.Uint64(),
		BodyHash: d.Bytes32(),
	}}
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		return nil, errors.New("blockchain: entry count exceeds input")
	}
	b.Entries = make([]Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		b.Entries = append(b.Entries, decodeEntry(d))
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("blockchain: unmarshal block: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, errors.New("blockchain: trailing bytes after block")
	}
	return b, nil
}

// Builder accumulates ordered entries and seals a block every Size entries.
// All replicas run identical builders over identical delivery streams, so
// the resulting blocks — and therefore checkpoint digests — agree.
type Builder struct {
	size     int
	prevHash crypto.Digest
	next     uint64
	pending  []Entry
}

// NewBuilder starts building on top of prev (usually Genesis() or the last
// persisted block). size is the paper's block size of 10 requests unless
// overridden.
func NewBuilder(prev *Block, size int) *Builder {
	if size <= 0 {
		size = 10
	}
	return &Builder{
		size:     size,
		prevHash: prev.Hash(),
		next:     prev.Index + 1,
		pending:  make([]Entry, 0, min(size, len(prev.Entries))),
	}
}

// Pending reports how many entries await sealing.
func (bd *Builder) Pending() int { return len(bd.pending) }

// PendingEntries returns a copy of the unsealed entries, needed when
// checkpoint state must cover open requests (§III-D error (ii)).
func (bd *Builder) PendingEntries() []Entry {
	out := make([]Entry, len(bd.pending))
	copy(out, bd.pending)
	return out
}

// NextIndex returns the index the next sealed block will get.
func (bd *Builder) NextIndex() uint64 { return bd.next }

// Add appends one ordered entry; when the block size is reached it seals and
// returns the block, otherwise it returns nil.
func (bd *Builder) Add(e Entry) *Block {
	bd.pending = append(bd.pending, e)
	if len(bd.pending) < bd.size {
		return nil
	}
	return bd.Seal()
}

// Seal closes the current block early (used at shutdown or on demand);
// returns nil when no entries are pending.
func (bd *Builder) Seal() *Block {
	if len(bd.pending) == 0 {
		return nil
	}
	entries := bd.pending
	// The sealed block keeps the entries' storage. Size the next block's
	// from this one: the size argument may be a "seal at checkpoints"
	// sentinel far above any real block.
	bd.pending = make([]Entry, 0, min(bd.size, len(entries)))
	b := &Block{
		Header: Header{
			Index:    bd.next,
			PrevHash: bd.prevHash,
			FirstSeq: entries[0].Seq,
			LastSeq:  entries[len(entries)-1].Seq,
			BodyHash: BodyDigest(entries),
		},
		Entries: entries,
	}
	bd.prevHash = b.Hash()
	bd.next++
	return b
}

// SealCheckpoint closes the block for a checkpoint boundary, always
// producing a block even when no entries accumulated (every duplicate in
// the interval was filtered): ZugChain creates exactly one block per PBFT
// checkpoint so the checkpoint digest is always defined (§III-C
// "Checkpointing"). seq is the checkpoint sequence number, recorded as the
// covered range on empty blocks.
func (bd *Builder) SealCheckpoint(seq uint64) *Block {
	if b := bd.Seal(); b != nil {
		return b
	}
	b := &Block{
		Header: Header{
			Index:    bd.next,
			PrevHash: bd.prevHash,
			FirstSeq: seq,
			LastSeq:  seq,
			BodyHash: BodyDigest(nil),
		},
	}
	bd.prevHash = b.Hash()
	bd.next++
	return b
}

// ResetTo re-anchors the builder on top of prev, discarding pending entries.
// Used after a state transfer installs blocks from peers.
func (bd *Builder) ResetTo(prev *Block) {
	bd.prevHash = prev.Hash()
	bd.next = prev.Index + 1
	bd.pending = bd.pending[:0]
}
