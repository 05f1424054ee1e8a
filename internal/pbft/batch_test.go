package pbft

import (
	"bytes"
	"testing"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

func batchTestKeys(t *testing.T) (map[crypto.NodeID]*crypto.KeyPair, *crypto.Registry) {
	t.Helper()
	kps := make(map[crypto.NodeID]*crypto.KeyPair)
	var pairs []*crypto.KeyPair
	for i := 0; i < 4; i++ {
		kp := crypto.MustGenerateKeyPair(crypto.NodeID(i))
		kps[kp.ID] = kp
		pairs = append(pairs, kp)
	}
	return kps, crypto.NewRegistry(pairs...)
}

// signedItems builds n signed requests with distinct payloads.
func signedItems(t *testing.T, kps map[crypto.NodeID]*crypto.KeyPair, n int) []Request {
	t.Helper()
	items := make([]Request, n)
	for i := range items {
		items[i] = Request{Payload: []byte{'r', byte(i)}}
		SignRequest(&items[i], kps[crypto.NodeID(i%len(kps))])
	}
	return items
}

func TestBatchRoundTrip(t *testing.T) {
	kps, _ := batchTestKeys(t)
	items := signedItems(t, kps, 5)

	decoded, err := DecodeBatch(EncodeBatch(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(decoded), len(items))
	}
	for i := range items {
		if !bytes.Equal(decoded[i].Payload, items[i].Payload) ||
			decoded[i].Origin != items[i].Origin ||
			!bytes.Equal(decoded[i].Sig, items[i].Sig) {
			t.Errorf("item %d = %+v, want %+v", i, decoded[i], items[i])
		}
		if decoded[i].Batch {
			t.Errorf("item %d decoded with Batch set", i)
		}
	}
}

func TestDecodeBatchRejectsMalformed(t *testing.T) {
	kps, _ := batchTestKeys(t)
	items := signedItems(t, kps, 2)
	good := EncodeBatch(items)

	cases := map[string][]byte{
		"empty input":    nil,
		"zero count":     {0},
		"huge count":     {0xff, 0xff, 0xff, 0xff, 0x7f},
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0xAA),
	}
	for name, data := range cases {
		if _, err := DecodeBatch(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// An inner record with an empty payload is structurally invalid.
	e := wire.NewEncoder(64)
	e.Uvarint(1)
	e.Bytes(nil)
	e.Uint32(0)
	e.Bytes(items[0].Sig)
	if _, err := DecodeBatch(e.Data()); err == nil {
		t.Error("empty inner payload accepted")
	}
}

func TestVerifyRequestDeepChecksInnerSignatures(t *testing.T) {
	kps, reg := batchTestKeys(t)
	items := signedItems(t, kps, 3)

	batch := Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&batch, kps[0])
	if err := VerifyRequestDeep(&batch, reg); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}

	// Forge one inner record: the envelope signature is recomputed by the
	// (faulty) primary, so only deep verification can catch it.
	items[1].Sig = bytes.Repeat([]byte{7}, crypto.SignatureSize)
	forged := Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&forged, kps[0])
	if err := VerifyRequestDeep(&forged, reg); err == nil {
		t.Error("batch hiding a forged inner signature accepted")
	}

	// A structurally broken batch payload must fail too.
	bad := Request{Payload: []byte{0}, Batch: true}
	SignRequest(&bad, kps[0])
	if err := VerifyRequestDeep(&bad, reg); err == nil {
		t.Error("malformed batch payload accepted")
	}
}

func TestBatchFlagIsSigned(t *testing.T) {
	kps, reg := batchTestKeys(t)
	items := signedItems(t, kps, 2)
	req := Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&req, kps[0])

	// Flipping the flag after signing must invalidate the signature: a
	// relay cannot turn a batch into a plain request or vice versa.
	req.Batch = false
	if err := VerifyRequest(&req, reg); err == nil {
		t.Error("cleared Batch flag not covered by the signature")
	}
	req.Batch = true
	if err := VerifyRequest(&req, reg); err != nil {
		t.Errorf("restored request no longer verifies: %v", err)
	}
}

func TestPayloadDigests(t *testing.T) {
	kps, _ := batchTestKeys(t)

	plain := Request{Payload: []byte("solo")}
	SignRequest(&plain, kps[0])
	if ds := plain.PayloadDigests(); len(ds) != 1 || ds[0] != plain.PayloadDigest() {
		t.Errorf("plain digests = %v", ds)
	}

	items := signedItems(t, kps, 3)
	batch := Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&batch, kps[0])
	ds := batch.PayloadDigests()
	if len(ds) != 3 {
		t.Fatalf("batch digests = %d, want 3", len(ds))
	}
	for i := range items {
		if ds[i] != crypto.Hash(items[i].Payload) {
			t.Errorf("digest %d does not match inner payload", i)
		}
	}

	malformed := Request{Payload: []byte{0xff}, Batch: true}
	if ds := malformed.PayloadDigests(); ds != nil {
		t.Errorf("malformed batch digests = %v, want nil", ds)
	}
}

func TestBatchRequestWireRoundTrip(t *testing.T) {
	kps, reg := batchTestKeys(t)
	items := signedItems(t, kps, 2)
	req := Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&req, kps[0])

	e := wire.NewEncoder(256)
	req.encodeTo(e)
	d := wire.NewDecoder(e.Data())
	out := decodeRequest(d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if !out.Batch {
		t.Error("Batch flag lost on the wire")
	}
	if err := VerifyRequestDeep(&out, reg); err != nil {
		t.Errorf("re-decoded batch fails verification: %v", err)
	}
}
