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

func decodeHeader(d *wire.Decoder) Header {
	return Header{
		Index:    d.Uint64(),
		PrevHash: d.Bytes32(),
		FirstSeq: d.Uint64(),
		LastSeq:  d.Uint64(),
		BodyHash: d.Bytes32(),
	}
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
	b := &Block{Header: decodeHeader(d)}
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

// ErrChainGap reports that a slot cannot be sealed yet: the chain misses
// slots below it that this replica never executed.
var ErrChainGap = errors.New("blockchain: chain misses a checkpoint block below the slot")

// Builder turns the ordered delivery stream into hash-chained blocks. All
// replicas run identical builders over identical delivery streams, so the
// resulting blocks — and therefore checkpoint digests — agree.
//
// A replica's builder (NewSlotBuilder) follows the chain's one sealing
// rule, SealSlot. A count builder (NewBuilder) seals every size entries
// instead: fixtures and experiments build chains of a fixed shape with it.
type Builder struct {
	size     int    // entries per block for Add; 0 for a slot builder
	interval uint64 // checkpoint interval of a slot builder
	prevHash crypto.Digest
	next     uint64
	lastSeq  uint64 // LastSeq of the block the builder extends
	pending  []Entry
}

// NewBuilder starts a count builder on top of prev (usually Genesis() or
// the last persisted block) that seals a block every size entries, the
// paper's 10 unless overridden.
func NewBuilder(prev *Block, size int) *Builder {
	if size <= 0 {
		size = 10
	}
	bd := &Builder{size: size}
	bd.ResetTo(prev)
	bd.pending = make([]Entry, 0, min(size, len(prev.Entries)))
	return bd
}

// NewSlotBuilder starts a replica's builder on top of prev, the store head:
// Add only collects the entries a slot logs, and SealSlot seals them, with
// a checkpoint every checkpointInterval slots.
func NewSlotBuilder(prev *Block, checkpointInterval uint64) *Builder {
	bd := &Builder{interval: checkpointInterval}
	bd.ResetTo(prev)
	return bd
}

// Pending reports how many entries await sealing.
func (bd *Builder) Pending() int { return len(bd.pending) }

// NextIndex returns the index the next sealed block will get.
func (bd *Builder) NextIndex() uint64 { return bd.next }

// Add appends one ordered entry. A count builder seals and returns the
// block once it holds size entries; otherwise Add returns nil.
func (bd *Builder) Add(e Entry) *Block {
	bd.pending = append(bd.pending, e)
	if bd.size == 0 || len(bd.pending) < bd.size {
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
	return bd.sealPending(len(bd.pending))
}

// SealSlot seals the blocks that executing slot seq completes, by the
// chain's one rule: every executed slot that logged an entry gets its own
// block (the records of a batched slot share it, and their seq), and a
// checkpoint slot, a multiple of the interval, that logged nothing gets an
// empty block with FirstSeq = LastSeq = seq. Null slots and other empty
// slots seal nothing. So at every checkpoint seq the chain holds a block
// ending there; its hash is the checkpoint digest, and through the hash
// chain it certifies every block since the previous checkpoint.
//
// Entries of earlier slots still pending (slots executed while the chain
// waited for a state transfer) are sealed first, one block per slot. A
// slot the chain already holds, because a transfer installed it before
// execution got there, seals nothing, and its entries are dropped.
//
// SealSlot seals nothing and keeps every entry pending, returning
// ErrChainGap, when the last checkpoint block precedes seq by more than the
// interval: execution jumped to a stable checkpoint past slots this
// replica never executed, and sealing would mint blocks at wrong indices.
// SealSlot is for builders made by NewSlotBuilder.
func (bd *Builder) SealSlot(seq uint64) ([]*Block, error) {
	if seq <= bd.lastSeq {
		bd.dropThrough(bd.lastSeq)
		return nil, nil
	}
	if seq-(bd.lastSeq-bd.lastSeq%bd.interval) > bd.interval {
		return nil, ErrChainGap
	}
	var blocks []*Block
	for len(bd.pending) > 0 && bd.pending[0].Seq <= seq {
		n := 1
		for n < len(bd.pending) && bd.pending[n].Seq == bd.pending[0].Seq {
			n++
		}
		blocks = append(blocks, bd.sealPending(n))
	}
	if seq%bd.interval == 0 && bd.lastSeq < seq {
		blocks = append(blocks, bd.seal(nil, seq, seq))
	}
	return blocks, nil
}

// sealPending seals the first n pending entries as one block.
func (bd *Builder) sealPending(n int) *Block {
	entries := bd.pending[:n:n]
	if n == len(bd.pending) {
		// The sealed block keeps the entries' storage; size the next
		// block's from this one.
		bd.pending = make([]Entry, 0, n)
	} else {
		bd.pending = bd.pending[n:]
	}
	return bd.seal(entries, entries[0].Seq, entries[n-1].Seq)
}

func (bd *Builder) seal(entries []Entry, firstSeq, lastSeq uint64) *Block {
	b := &Block{
		Header: Header{
			Index:    bd.next,
			PrevHash: bd.prevHash,
			FirstSeq: firstSeq,
			LastSeq:  lastSeq,
			BodyHash: BodyDigest(entries),
		},
		Entries: entries,
	}
	bd.prevHash = b.Hash()
	bd.next++
	bd.lastSeq = lastSeq
	return b
}

// ResetTo re-anchors the builder on top of prev, after a state transfer
// installed blocks from peers. Pending entries prev already covers are
// dropped; those of later slots stay pending.
func (bd *Builder) ResetTo(prev *Block) {
	bd.prevHash = prev.Hash()
	bd.next = prev.Index + 1
	bd.lastSeq = prev.LastSeq
	bd.dropThrough(prev.LastSeq)
}

// dropThrough drops the pending entries at or below seq.
func (bd *Builder) dropThrough(seq uint64) {
	n := 0
	for n < len(bd.pending) && bd.pending[n].Seq <= seq {
		n++
	}
	bd.pending = bd.pending[n:]
}
