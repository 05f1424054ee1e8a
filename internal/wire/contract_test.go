package wire_test

import (
	"bytes"
	"testing"

	"zugchain/internal/baseline"
	"zugchain/internal/blockchain"
	"zugchain/internal/core"
	"zugchain/internal/crypto"
	"zugchain/internal/export"
	"zugchain/internal/pbft"
	"zugchain/internal/wire"
)

// sampleMessages returns one instance of every registered protocol message,
// with every byte string, list and nested message non-empty, so each
// decoder's handling of variable-length fields is exercised.
func sampleMessages(t *testing.T) []wire.Message {
	t.Helper()
	sig := func(b byte) []byte { return bytes.Repeat([]byte{b}, crypto.SignatureSize) }
	req := pbft.Request{Payload: []byte("a juridical record"), Origin: 2, Sig: sig(1)}
	batch := pbft.Request{
		Payload: pbft.EncodeBatch([]pbft.Request{req, {Payload: []byte("second"), Origin: 3, Sig: sig(2)}}),
		Origin:  0, Sig: sig(3), Batch: true,
	}
	pp := pbft.PrePrepare{View: 1, Seq: 7, Req: batch, Replica: 1, Sig: sig(4)}
	prep := pbft.Prepare{View: 1, Seq: 7, Digest: crypto.Hash([]byte("p")), Replica: 2, Sig: sig(5)}
	cp := pbft.Checkpoint{Seq: 10, StateDigest: crypto.Hash([]byte("s")), Replica: 3, Sig: sig(6)}
	proof := pbft.CheckpointProof{Seq: 10, StateDigest: cp.StateDigest, Checkpoints: []pbft.Checkpoint{cp, cp}}
	vc := pbft.ViewChange{
		NewView: 2, StableSeq: 10, StableCkpt: proof,
		Prepared: []pbft.PreparedProof{{PrePrepare: pp, Prepares: []pbft.Prepare{prep, prep}}},
		Replica:  3, Sig: sig(7),
	}

	bd := blockchain.NewBuilder(blockchain.Genesis(), 2)
	var blocks []*blockchain.Block
	for seq := uint64(1); seq <= 4; seq++ {
		if b := bd.Add(blockchain.Entry{Seq: seq, Origin: crypto.NodeID(seq), Payload: []byte{byte(seq), 'x'}, Sig: sig(byte(seq))}); b != nil {
			blocks = append(blocks, b)
		}
	}
	if len(blocks) != 2 {
		t.Fatalf("built %d blocks, want 2", len(blocks))
	}

	return []wire.Message{
		&pp,
		&prep,
		&pbft.Commit{View: 1, Seq: 7, Digest: prep.Digest, Replica: 2, MAC: bytes.Repeat([]byte{9}, crypto.MACSize)},
		&cp,
		&vc,
		&pbft.NewView{View: 2, ViewChanges: []pbft.ViewChange{vc, vc}, PrePrepares: []pbft.PrePrepare{pp}, Replica: 2, Sig: sig(8)},
		&pbft.PrePrepareRef{PrePrepare: pp},
		&pbft.PrePrepareFetch{View: 1, Seq: 7},
		&core.ZCRequest{Req: req},
		&export.ReadRequest{Round: 3, LastIndex: 1, WantBlocks: true, DC: 9, Sig: sig(10)},
		&export.ReadReply{Round: 3, BlockIndex: 2, Ckpt: proof, Blocks: blocks, FirstAvailable: 1, Replica: 1, Sig: sig(11)},
		&export.Delete{BlockIndex: 2, BlockHash: blocks[1].Hash(), DC: 9, Sig: sig(12)},
		&export.DeleteAck{BlockIndex: 2, Replica: 1, Sig: sig(13)},
		&export.StateRequest{FromIndex: 1, Replica: 2, Sig: sig(14)},
		&export.StateReply{Blocks: blocks, PruneAuth: []byte("prune authorization"), Replica: 1, Sig: sig(15)},
		&baseline.ClientRequest{Req: req},
		wire.SampleTestMsg(),
	}
}

// TestDecodedMessagesOwnTheirBytes pins the contract that lets transports
// lend inbound frames for the handler call only: a message decoded by
// Unmarshal keeps no reference to its input. Each registered type is
// decoded from a buffer that is then overwritten, and must still re-encode
// to the original bytes.
func TestDecodedMessagesOwnTheirBytes(t *testing.T) {
	covered := make(map[wire.Type]bool)
	for _, m := range sampleMessages(t) {
		want := wire.Marshal(m)
		buf := bytes.Clone(want)
		got, err := wire.Unmarshal(buf)
		if err != nil {
			t.Errorf("%T: Unmarshal: %v", m, err)
			continue
		}
		for i := range buf {
			buf[i] = 0xa5
		}
		if enc := wire.Marshal(got); !bytes.Equal(enc, want) {
			t.Errorf("%T: re-encoding after the input was overwritten differs from the original", m)
		}
		covered[m.WireType()] = true
	}
	for _, typ := range wire.RegisteredTypes() {
		if !covered[typ] {
			t.Errorf("registered type %#x has no sample", uint16(typ))
		}
	}
}

// TestUnmarshalAllocations guards the pooled decoder: decoding a Prepare
// allocates only the message and its signature copy.
func TestUnmarshalAllocations(t *testing.T) {
	p := &pbft.Prepare{View: 1, Seq: 7, Digest: crypto.Hash([]byte("p")), Replica: 2, Sig: make([]byte, crypto.SignatureSize)}
	data := wire.Marshal(p)
	decode := func() {
		if _, err := wire.Unmarshal(data); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n > 2 {
		t.Errorf("Unmarshal of a Prepare allocates %v times, want at most 2 (the message and its signature)", n)
	}
}
