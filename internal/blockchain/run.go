package blockchain

import (
	"fmt"
	"math"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// EncodeRun writes a contiguous, hash-linked run of blocks in the compact
// form export and state transfer send over the network. Only what a
// receiver cannot recompute travels:
//
//   - once per run: the block count, the first block's Index and PrevHash;
//   - per block: FirstSeq as a delta from the previous block's LastSeq,
//     LastSeq−FirstSeq, and the entry count;
//   - per entry: the Seq delta from the previous entry (the first from
//     FirstSeq), Origin as a varint, Payload and Sig.
//
// DecodeRun derives the rest of every header from the chain: indices count
// up, each PrevHash is the previous header's hash, and each BodyHash is the
// digest of the entries. blocks must therefore be linked and valid, as every
// run a store holds is; from any other run DecodeRun rebuilds blocks with
// other hashes. Storage is unaffected: Marshal stays the on-disk form.
func EncodeRun(e *wire.Encoder, blocks []*Block) {
	e.Uvarint(uint64(len(blocks)))
	if len(blocks) == 0 {
		return
	}
	e.Uint64(blocks[0].Index)
	e.Bytes32(blocks[0].PrevHash)
	var last uint64
	for _, b := range blocks {
		// Deltas wrap modulo 2^64, so any sequence range round-trips; in a
		// chain they are small and non-negative.
		e.Uvarint(b.FirstSeq - last)
		e.Uvarint(b.LastSeq - b.FirstSeq)
		e.Uvarint(uint64(len(b.Entries)))
		seq := b.FirstSeq
		for i := range b.Entries {
			en := &b.Entries[i]
			e.Uvarint(en.Seq - seq)
			e.Uvarint(uint64(en.Origin))
			e.Bytes(en.Payload)
			e.Bytes(en.Sig)
			seq = en.Seq
		}
		last = b.LastSeq
	}
}

// DecodeRun reads a run written by EncodeRun and rebuilds each full header.
// The decoded blocks are linked to each other by construction; only the
// first block's PrevHash is as received, so whoever installs the run must
// check it against its own head — and, because no header field arrives
// from the sender, vouch for the content by matching a decoded block's hash
// against a certified one (a stable checkpoint).
//
// Failures are recorded in d: besides malformed bytes, a count larger than
// the input left and a block whose entries do not match its sequence range
// (what Validate would reject) fail the decode, so every returned block
// passes Validate.
func DecodeRun(d *wire.Decoder) []*Block {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("blockchain: run of %d blocks exceeds input: %w", n, wire.ErrTooLarge))
		return nil
	}
	if n == 0 {
		return nil
	}
	index := d.Uint64()
	prev := d.Bytes32()
	blocks := make([]*Block, 0, n)
	var last uint64
	for i := uint64(0); i < n; i++ {
		b := &Block{Header: Header{Index: index + i, PrevHash: prev}}
		b.FirstSeq = last + d.Uvarint()
		b.LastSeq = b.FirstSeq + d.Uvarint()
		m := d.Uvarint()
		if m > uint64(d.Remaining()) {
			d.Fail(fmt.Errorf("blockchain: block of %d entries exceeds input: %w", m, wire.ErrTooLarge))
			return nil
		}
		b.Entries = make([]Entry, 0, m)
		seq := b.FirstSeq
		for j := uint64(0); j < m; j++ {
			seq += d.Uvarint()
			origin := d.Uvarint()
			if origin > math.MaxUint32 {
				d.Fail(fmt.Errorf("blockchain: origin %d: %w", origin, wire.ErrTooLarge))
			}
			b.Entries = append(b.Entries, Entry{
				Seq:     seq,
				Origin:  crypto.NodeID(origin),
				Payload: d.BytesCopy(),
				Sig:     d.BytesCopy(),
			})
		}
		if d.Err() != nil {
			return nil
		}
		if err := b.validateSeqs(); err != nil {
			d.Fail(err)
			return nil
		}
		b.BodyHash = BodyDigest(b.Entries)
		prev = b.Hash()
		last = b.LastSeq
		blocks = append(blocks, b)
	}
	return blocks
}
