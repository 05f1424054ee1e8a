package main

import (
	"fmt"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
)

// chainSource is the read side of a replica's block store.
type chainSource interface {
	HeadIndex() uint64
	Get(index uint64) (*blockchain.Block, error)
}

// quorumDetector finds blocks appended on a quorum of replica stores by
// polling their heads. For a disk store an appended block is fsync'd.
type quorumDetector struct {
	quorum int
	next   []uint64 // per replica: the next block index to read
	seen   map[uint64]*seenBlock
	// onRecorded runs once per block, when the quorum-th store holds it.
	onRecorded func(b *blockchain.Block, at time.Time)
	err        error // first fork found
}

type seenBlock struct {
	hash  crypto.Digest
	count int
}

func newQuorumDetector(replicas, quorum int, onRecorded func(*blockchain.Block, time.Time)) *quorumDetector {
	d := &quorumDetector{
		quorum:     quorum,
		next:       make([]uint64, replicas),
		seen:       make(map[uint64]*seenBlock),
		onRecorded: onRecorded,
	}
	for i := range d.next {
		d.next[i] = 1
	}
	return d
}

// poll reads every new block of every store. A block whose hash differs
// between two stores is a fork.
func (d *quorumDetector) poll(stores []chainSource, now time.Time) {
	for i, s := range stores {
		for head := s.HeadIndex(); d.next[i] <= head; d.next[i]++ {
			b, err := s.Get(d.next[i])
			if err != nil {
				break
			}
			h := b.Hash()
			sb := d.seen[b.Index]
			if sb == nil {
				sb = &seenBlock{hash: h}
				d.seen[b.Index] = sb
			} else if sb.hash != h && d.err == nil {
				d.err = fmt.Errorf("fork at block %d: replica %d holds %s, another %s",
					b.Index, i, h.Short(), sb.hash.Short())
			}
			sb.count++
			if sb.count == d.quorum && sb.hash == h {
				d.onRecorded(b, now)
			}
		}
	}
}
