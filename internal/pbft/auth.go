package pbft

import (
	"fmt"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// Commits are authenticated with pairwise MACs instead of signatures (the
// Castro–Liskov split, DESIGN.md §3.18). A Commit only ever convinces the
// replica it is addressed to: view changes carry prepared certificates of
// signed PrePrepares and Prepares, stable checkpoints are separate signed
// messages, and the WAL logs only this replica's own commit digest. So each
// peer gets its own encoding, tagged under the key this replica shares with
// it, and a tag is worth nothing to anyone else.

// commitKeys derives the pairwise MAC key this replica shares with every
// other replica in cfg. reg must know every replica's public key.
func commitKeys(cfg Config, kp *crypto.KeyPair, reg *crypto.Registry) (map[crypto.NodeID]*crypto.MACKey, error) {
	keys := make(map[crypto.NodeID]*crypto.MACKey, len(cfg.Replicas)-1)
	for _, id := range cfg.Replicas {
		if id == cfg.ID {
			continue
		}
		pub, ok := reg.PublicKey(id)
		if !ok {
			return nil, fmt.Errorf("pbft: registry has no key for replica %v", id)
		}
		k, err := kp.PairwiseKey(id, pub)
		if err != nil {
			return nil, fmt.Errorf("pbft: %w", err)
		}
		keys[id] = crypto.NewMACKey(k)
	}
	return keys, nil
}

// commitAuthBytesInto encodes what a Commit's tag covers into e, which is
// reset first: the Commit's signing bytes (wire tag, view, seq, digest and
// sender, with an empty MAC) followed by the receiver's ID, so a tag moved
// to another receiver, view, seq or digest no longer checks. The result
// aliases e's buffer. Like Sig elsewhere, MAC must be Commit's final field.
func commitAuthBytesInto(e *wire.Encoder, c *Commit, to crypto.NodeID) []byte {
	wire.SigningBytesInto(e, c, c.MAC)
	e.Uint32(uint32(to))
	return e.Data()
}

// commitBroadcast returns the broadcast of this replica's untagged Commit c
// with one tagged encoding per peer, in cfg.Replicas order, all cut from
// one allocation.
func (e *Engine) commitBroadcast(c *Commit) BroadcastAction {
	enc := wire.GetEncoder()
	body := len(wire.SigningBytesInto(enc, c, nil)) - 1 // without the empty MAC's length byte
	size := body + 1 + crypto.MACSize
	buf := make([]byte, len(e.macs)*size)
	perPeer := make([]SendAction, 0, len(e.macs))
	for _, id := range e.cfg.Replicas {
		if id == e.cfg.ID {
			continue
		}
		out := buf[:size:size]
		buf = buf[size:]
		msg := commitAuthBytesInto(enc, c, id)
		copy(out, msg[:body])
		out[body] = crypto.MACSize
		e.macs[id].Tag(out[body+1:], msg)
		perPeer = append(perPeer, SendAction{To: id, Msg: c, Encoded: out})
	}
	wire.PutEncoder(enc)
	return BroadcastAction{Msg: c, PerPeer: perPeer}
}

// authenticCommit reports whether c's tag checks as sent by c.Replica to
// this replica, counting a failure as a MAC reject. It reads only state
// fixed at NewEngine, so the runner calls it on delivery goroutines.
func (e *Engine) authenticCommit(c *Commit) bool {
	key := e.macs[c.Replica]
	ok := false
	if key != nil {
		enc := wire.GetEncoder()
		ok = key.Check(commitAuthBytesInto(enc, c, e.cfg.ID), c.MAC)
		wire.PutEncoder(enc)
	}
	if !ok {
		e.reg.Counters().AddMACReject()
	}
	return ok
}
