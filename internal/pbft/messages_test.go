package pbft

import (
	"bytes"
	"testing"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

func testKeys(t *testing.T, n int) ([]*crypto.KeyPair, *crypto.Registry) {
	t.Helper()
	kps := make([]*crypto.KeyPair, n)
	for i := range kps {
		kps[i] = crypto.MustGenerateKeyPair(crypto.NodeID(i))
	}
	return kps, crypto.NewRegistry(kps...)
}

func TestRequestSignVerify(t *testing.T) {
	kps, reg := testKeys(t, 1)
	req := Request{Payload: []byte("signals")}
	SignRequest(&req, kps[0])
	if err := VerifyRequest(&req, reg); err != nil {
		t.Fatalf("VerifyRequest: %v", err)
	}
	req.Payload = []byte("tampered")
	if err := VerifyRequest(&req, reg); err == nil {
		t.Error("tampered request verified")
	}
}

func TestRequestDigests(t *testing.T) {
	kps, _ := testKeys(t, 2)
	a := Request{Payload: []byte("same")}
	SignRequest(&a, kps[0])
	b := Request{Payload: []byte("same")}
	SignRequest(&b, kps[1])
	if a.PayloadDigest() != b.PayloadDigest() {
		t.Error("payload digests differ for identical payloads")
	}
	if a.Digest() == b.Digest() {
		t.Error("full digests collide despite different origins")
	}
}

func TestRequestIsNull(t *testing.T) {
	if !(&Request{}).IsNull() {
		t.Error("empty request not null")
	}
	if (&Request{Payload: []byte{1}}).IsNull() {
		t.Error("nonempty request null")
	}
}

func roundTrip(t *testing.T, msg wire.Message) wire.Message {
	t.Helper()
	out, err := wire.Unmarshal(wire.Marshal(msg))
	if err != nil {
		t.Fatalf("round trip %T: %v", msg, err)
	}
	return out
}

func TestMessageRoundTrips(t *testing.T) {
	kps, reg := testKeys(t, 4)
	req := Request{Payload: []byte("payload")}
	SignRequest(&req, kps[1])

	pp := &PrePrepare{View: 3, Seq: 17, Req: req, Replica: 3}
	sign(pp, kps[3])
	got := roundTrip(t, pp).(*PrePrepare)
	if got.View != 3 || got.Seq != 17 || !bytes.Equal(got.Req.Payload, req.Payload) {
		t.Errorf("PrePrepare = %+v", got)
	}
	if err := verify(got, reg); err != nil {
		t.Errorf("PrePrepare signature lost in transit: %v", err)
	}

	p := &Prepare{View: 1, Seq: 2, Digest: crypto.Hash([]byte("d")), Replica: 2}
	sign(p, kps[2])
	if g := roundTrip(t, p).(*Prepare); g.Digest != p.Digest || verify(g, reg) != nil {
		t.Errorf("Prepare round trip failed: %+v", g)
	}

	cm := &Commit{View: 1, Seq: 2, Digest: crypto.Hash([]byte("d")), Replica: 1, MAC: bytes.Repeat([]byte{7}, crypto.MACSize)}
	if g := roundTrip(t, cm).(*Commit); g.Seq != 2 || g.Digest != cm.Digest || !bytes.Equal(g.MAC, cm.MAC) {
		t.Errorf("Commit round trip failed: %+v", g)
	}

	ck := &Checkpoint{Seq: 10, StateDigest: crypto.Hash([]byte("b")), Replica: 0}
	sign(ck, kps[0])
	if g := roundTrip(t, ck).(*Checkpoint); g.StateDigest != ck.StateDigest || verify(g, reg) != nil {
		t.Errorf("Checkpoint round trip failed: %+v", g)
	}
}

func TestViewChangeRoundTripWithProofs(t *testing.T) {
	kps, reg := testKeys(t, 4)
	req := Request{Payload: []byte("prepared-req")}
	SignRequest(&req, kps[0])
	pp := PrePrepare{View: 0, Seq: 11, Req: req, Replica: 0}
	sign(&pp, kps[0])
	var prepares []Prepare
	for _, i := range []int{1, 2} {
		pr := Prepare{View: 0, Seq: 11, Digest: req.Digest(), Replica: crypto.NodeID(i)}
		sign(&pr, kps[i])
		prepares = append(prepares, pr)
	}
	var cps []Checkpoint
	for i := 0; i < 3; i++ {
		ck := Checkpoint{Seq: 10, StateDigest: crypto.Hash([]byte("block10")), Replica: crypto.NodeID(i)}
		sign(&ck, kps[i])
		cps = append(cps, ck)
	}
	vc := &ViewChange{
		NewView:   1,
		StableSeq: 10,
		StableCkpt: CheckpointProof{
			Seq: 10, StateDigest: crypto.Hash([]byte("block10")), Checkpoints: cps,
		},
		Prepared: []PreparedProof{{PrePrepare: pp, Prepares: prepares}},
		Replica:  2,
	}
	sign(vc, kps[2])

	got := roundTrip(t, vc).(*ViewChange)
	if err := verify(got, reg); err != nil {
		t.Fatalf("ViewChange signature: %v", err)
	}
	if got.StableSeq != 10 || len(got.Prepared) != 1 || len(got.StableCkpt.Checkpoints) != 3 {
		t.Fatalf("ViewChange = %+v", got)
	}
	if err := got.StableCkpt.Verify(reg, 3); err != nil {
		t.Errorf("embedded checkpoint proof: %v", err)
	}
	if got.Prepared[0].PrePrepare.Req.Digest() != req.Digest() {
		t.Error("prepared proof request lost")
	}

	nv := &NewView{View: 1, ViewChanges: []ViewChange{*vc}, PrePrepares: []PrePrepare{pp}, Replica: 1}
	sign(nv, kps[1])
	gotNV := roundTrip(t, nv).(*NewView)
	if err := verify(gotNV, reg); err != nil {
		t.Fatalf("NewView signature: %v", err)
	}
	if len(gotNV.ViewChanges) != 1 || len(gotNV.PrePrepares) != 1 {
		t.Fatalf("NewView = %+v", gotNV)
	}
}

func TestCheckpointProofVerifyErrors(t *testing.T) {
	kps, reg := testKeys(t, 4)
	digest := crypto.Hash([]byte("block"))
	mk := func(i int, seq uint64, d crypto.Digest) Checkpoint {
		ck := Checkpoint{Seq: seq, StateDigest: d, Replica: crypto.NodeID(i)}
		sign(&ck, kps[i])
		return ck
	}

	t.Run("valid", func(t *testing.T) {
		p := CheckpointProof{Seq: 10, StateDigest: digest,
			Checkpoints: []Checkpoint{mk(0, 10, digest), mk(1, 10, digest), mk(2, 10, digest)}}
		if err := p.Verify(reg, 3); err != nil {
			t.Errorf("Verify: %v", err)
		}
	})
	t.Run("too few", func(t *testing.T) {
		p := CheckpointProof{Seq: 10, StateDigest: digest,
			Checkpoints: []Checkpoint{mk(0, 10, digest), mk(1, 10, digest)}}
		if err := p.Verify(reg, 3); err == nil {
			t.Error("want error")
		}
	})
	t.Run("duplicate signer", func(t *testing.T) {
		p := CheckpointProof{Seq: 10, StateDigest: digest,
			Checkpoints: []Checkpoint{mk(0, 10, digest), mk(0, 10, digest), mk(1, 10, digest)}}
		if err := p.Verify(reg, 3); err == nil {
			t.Error("want error")
		}
	})
	t.Run("mismatched seq", func(t *testing.T) {
		p := CheckpointProof{Seq: 10, StateDigest: digest,
			Checkpoints: []Checkpoint{mk(0, 11, digest), mk(1, 10, digest), mk(2, 10, digest)}}
		if err := p.Verify(reg, 3); err == nil {
			t.Error("want error")
		}
	})
	t.Run("genesis needs no proof", func(t *testing.T) {
		var p CheckpointProof
		if err := p.Verify(reg, 3); err != nil {
			t.Errorf("genesis proof: %v", err)
		}
	})
}

func TestSigningBytesExcludesSignature(t *testing.T) {
	kps, _ := testKeys(t, 1)
	p := &Prepare{View: 1, Seq: 2, Digest: crypto.Hash([]byte("x")), Replica: 0}
	before := signingBytes(p)
	sign(p, kps[0])
	after := signingBytes(p)
	if !bytes.Equal(before, after) {
		t.Error("signature changed the signing bytes")
	}
	if p.Sig == nil {
		t.Error("sign did not set the signature")
	}
}
