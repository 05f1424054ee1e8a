package export

import (
	"bytes"
	"fmt"
	"testing"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/pbft"
	"zugchain/internal/wire"
)

// referenceSigningBytes is the clear-and-restore implementation the export
// messages were first signed with, kept as the specification the pooled
// path must match byte for byte.
func referenceSigningBytes(m signableMsg) []byte {
	saved := m.signature()
	m.setSignature(nil)
	out := wire.Marshal(m)
	m.setSignature(saved)
	return out
}

// TestSigningBytesMatchesReference guards the sig-is-last-field invariant
// wire.SigningBytesInto depends on, for every export message, and checks
// that signing and verifying leave the message untouched.
func TestSigningBytesMatchesReference(t *testing.T) {
	kp := crypto.MustGenerateKeyPair(1)
	reg := crypto.NewRegistry(kp)
	block := nextBlock(blockchain.Genesis())
	proof := pbft.CheckpointProof{Seq: block.LastSeq, StateDigest: block.Hash(),
		Checkpoints: []pbft.Checkpoint{pbft.NewSignedCheckpoint(block.LastSeq, block.Hash(), kp)}}
	del := Delete{BlockIndex: 1, BlockHash: block.Hash(), DC: 1}
	cert := DeleteCertificate{BlockIndex: 1, BlockHash: block.Hash(), Deletes: []Delete{del}}
	msgs := []signableMsg{
		&ReadRequest{Round: 2, LastIndex: 1, WantBlocks: true, DC: 1},
		&ReadReply{Round: 2, BlockIndex: 1, Ckpt: proof, Blocks: []*blockchain.Block{block}, FirstAvailable: 0, Replica: 1},
		&del,
		&DeleteAck{BlockIndex: 1, Replica: 1},
		&StateRequest{FromIndex: 1, Replica: 1},
		&StateReply{Blocks: []*blockchain.Block{block}, PruneAuth: cert.Marshal(), Replica: 1},
	}
	for _, m := range msgs {
		name := fmt.Sprintf("%T", m)
		signMsg(m, kp)
		sig := append([]byte(nil), m.signature()...)
		want := referenceSigningBytes(m)
		e := wire.GetEncoder()
		if got := wire.SigningBytesInto(e, m, m.signature()); !bytes.Equal(got, want) {
			t.Errorf("%s: signing bytes diverge from the reference", name)
		}
		wire.PutEncoder(e)
		if err := verifyMsg(m, reg); err != nil {
			t.Errorf("%s: verify: %v", name, err)
		}
		if !bytes.Equal(m.signature(), sig) {
			t.Errorf("%s: signing bytes mutated the signature", name)
		}
	}
}
