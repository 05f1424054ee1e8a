package pbft

import (
	"fmt"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// signable is implemented by every signed PBFT message — all of them but
// the per-receiver MAC'd Commit (auth.go) and the unsigned PrePrepareFetch:
// the signature covers the wire encoding with the Sig field emptied.
//
// Encoding invariant: Sig MUST be the final field of every signable's wire
// encoding (written with Encoder.Bytes). signingBytesInto relies on it to
// derive the signing bytes from a full encoding by rewriting the signature
// tail in place, and signedBroadcast relies on it to derive the broadcast
// encoding from the signing bytes. TestSigningBytesMatchesReference guards
// the invariant for every message type.
type signable interface {
	wire.Message
	signer() crypto.NodeID
	signature() []byte
	setSignature(sig []byte)
}

func (m *PrePrepare) signer() crypto.NodeID   { return m.Replica }
func (m *PrePrepare) signature() []byte       { return m.Sig }
func (m *PrePrepare) setSignature(sig []byte) { m.Sig = sig }

func (m *Prepare) signer() crypto.NodeID   { return m.Replica }
func (m *Prepare) signature() []byte       { return m.Sig }
func (m *Prepare) setSignature(sig []byte) { m.Sig = sig }

func (m *Checkpoint) signer() crypto.NodeID   { return m.Replica }
func (m *Checkpoint) signature() []byte       { return m.Sig }
func (m *Checkpoint) setSignature(sig []byte) { m.Sig = sig }

func (m *ViewChange) signer() crypto.NodeID   { return m.Replica }
func (m *ViewChange) signature() []byte       { return m.Sig }
func (m *ViewChange) setSignature(sig []byte) { m.Sig = sig }

func (m *NewView) signer() crypto.NodeID   { return m.Replica }
func (m *NewView) signature() []byte       { return m.Sig }
func (m *NewView) setSignature(sig []byte) { m.Sig = sig }

// signingBytesInto encodes m's signing bytes (the enveloped wire encoding
// with an empty Sig) into e, which is reset first, and returns the encoded
// slice. The result aliases e's buffer: callers must not retain it past the
// next use of e. It never mutates m (see wire.SigningBytesInto), which makes
// concurrent verification of the same message — as the VerifyPool's workers
// do — race-free.
func signingBytesInto(e *wire.Encoder, m signable) []byte {
	return wire.SigningBytesInto(e, m, m.signature())
}

// signingBytes returns an owned copy of m's signing bytes. Hot paths use
// signingBytesInto with a pooled encoder instead; this helper remains for
// tests and callers that need to retain the slice.
func signingBytes(m signable) []byte {
	return wire.Encode(func(e *wire.Encoder) { signingBytesInto(e, m) })
}

// sign fills in the message signature using kp, which must belong to the
// message's declared sender.
func sign(m signable, kp *crypto.KeyPair) {
	e := wire.GetEncoder()
	m.setSignature(kp.Sign(signingBytesInto(e, m)))
	wire.PutEncoder(e)
}

// signedBroadcast signs m and returns a BroadcastAction carrying the cached
// wire encoding: after signing, the encoder already holds m's encoding with
// an empty signature tail, so appending the fresh signature yields the exact
// bytes wire.Marshal would produce — without encoding the message a second
// (or, counting the runner's marshal, third) time.
func signedBroadcast(m signable, kp *crypto.KeyPair) BroadcastAction {
	e := wire.GetEncoder()
	sig := kp.Sign(signingBytesInto(e, m))
	m.setSignature(sig)
	e.Truncate(e.Len() - 1) // drop the empty-signature length byte
	e.Bytes(sig)
	enc := e.Clone()
	wire.PutEncoder(e)
	return BroadcastAction{Msg: m, Encoded: enc}
}

// verify checks the message signature against the registry. Safe to call
// concurrently for the same message: the signing bytes are computed without
// mutating m.
func verify(m signable, reg *crypto.Registry) error {
	e := wire.GetEncoder()
	err := reg.Verify(m.signer(), signingBytesInto(e, m), m.signature())
	wire.PutEncoder(e)
	return err
}

// preVerify performs the expensive Ed25519 checks for an inbound message
// without touching engine state: the envelope signature plus, for
// preprepares, the embedded request signature — and, for batch requests,
// every inner record signature, so a batched proposal reaching the event
// loop is already known to carry only authenticated records. It is what the
// runner runs on the VerifyPool's workers; Engine.ReceiveVerified then skips
// exactly these checks. Callers must own m (no concurrent mutation), but m
// itself is never mutated here.
func preVerify(m signable, reg *crypto.Registry) error {
	if err := verify(m, reg); err != nil {
		return err
	}
	if pp, ok := m.(*PrePrepare); ok {
		return VerifyRequestDeep(&pp.Req, reg)
	}
	return nil
}

// verifyCheckpointSet validates a set of checkpoint messages as a stable
// checkpoint proof for (seq, digest): at least quorum messages from distinct
// replicas, each matching and correctly signed.
func verifyCheckpointSet(seq uint64, digest crypto.Digest, cps []Checkpoint, reg *crypto.Registry, quorum int) error {
	if seq == 0 {
		// Genesis: the empty chain needs no proof.
		return nil
	}
	seen := make(map[crypto.NodeID]bool, len(cps))
	valid := 0
	for i := range cps {
		c := &cps[i]
		if c.Seq != seq || c.StateDigest != digest {
			return fmt.Errorf("pbft: checkpoint from %v does not match (seq %d vs %d)", c.Replica, c.Seq, seq)
		}
		if seen[c.Replica] {
			return fmt.Errorf("pbft: duplicate checkpoint signer %v", c.Replica)
		}
		seen[c.Replica] = true
		if err := verify(c, reg); err != nil {
			return fmt.Errorf("pbft: checkpoint proof: %w", err)
		}
		valid++
	}
	if valid < quorum {
		return fmt.Errorf("pbft: checkpoint proof has %d signatures, need %d", valid, quorum)
	}
	return nil
}
