package pbft

import (
	"strings"
	"testing"

	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
)

// TestPrimarySelfBatchNotReverified is the satellite regression for the
// crypto acceleration layer: once the primary has admitted records (verifying
// them on arrival) and signed its own batched proposal, re-checking that
// proposal through preVerify — the path a loopback or NEWVIEW re-proposal
// takes — must cost zero additional scalar verifications. Every signature
// involved is either cached from admission or seeded by the primary's own
// Sign.
func TestPrimarySelfBatchNotReverified(t *testing.T) {
	kps, plain := batchTestKeys(t)
	cc := &metrics.CryptoCounters{}
	cache := crypto.NewVerifyCache(0, cc)
	reg := plain.Accelerated(cache, true, cc)
	primary := kps[0].WithCache(cache)

	// Admission path: each record's origin signature is verified once when
	// it arrives at the primary, feeding the cache.
	items := signedItems(t, kps, 8)
	for i := range items {
		if err := VerifyRequest(&items[i], reg); err != nil {
			t.Fatalf("admit record %d: %v", i, err)
		}
	}

	// The primary coalesces the admitted records and signs the batch
	// envelope and the PrePrepare with its cache-seeding key pair, exactly
	// as a node constructed by node.New does.
	batch := Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&batch, primary)
	pp := &PrePrepare{View: 0, Seq: 1, Req: batch, Replica: primary.ID}
	sign(pp, primary)

	scalar, batched, cached := cc.ScalarVerifies.Load(), cc.BatchedSigs.Load(), cc.CacheHits.Load()
	if err := preVerify(pp, reg, nil); err != nil {
		t.Fatalf("preVerify of own proposal: %v", err)
	}
	if got := cc.ScalarVerifies.Load() - scalar; got != 0 {
		t.Errorf("self-proposal cost %d scalar verifies, want 0", got)
	}
	if got := cc.BatchedSigs.Load() - batched; got != 0 {
		t.Errorf("self-proposal cost a batch equation over %d sigs, want 0", got)
	}
	if hits := cc.CacheHits.Load() - cached; hits < 8 {
		t.Errorf("self-proposal hit the cache %d times, want >= 8", hits)
	}
}

// TestVerifyRequestDeepNamesCulprits checks the operator-facing half of
// batch rejection: the error must identify exactly which record indices
// carry forged signatures.
func TestVerifyRequestDeepNamesCulprits(t *testing.T) {
	kps, reg := batchTestKeys(t)
	items := signedItems(t, kps, 20)
	items[7].Sig = append([]byte(nil), items[7].Sig...)
	items[7].Sig[3] ^= 0x10

	batch := Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&batch, kps[0])
	err := VerifyRequestDeep(&batch, reg, nil)
	if err == nil {
		t.Fatal("batch with forged record accepted")
	}
	if !strings.Contains(err.Error(), "batch record 7") {
		t.Errorf("error does not name the culprit: %v", err)
	}

	items[13].Sig = append([]byte(nil), items[13].Sig...)
	items[13].Sig[40] ^= 0x04
	batch = Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&batch, kps[0])
	err = VerifyRequestDeep(&batch, reg, nil)
	if err == nil || !strings.Contains(err.Error(), "[7 13]") {
		t.Errorf("error does not name both culprits: %v", err)
	}
}

// TestVerifyRequestDeepChunksOnPool runs the deep verification of a large
// batch across a verify pool — the production path for a big PrePrepare —
// and checks both verdict directions.
func TestVerifyRequestDeepChunksOnPool(t *testing.T) {
	kps, reg := batchTestKeys(t)
	pool := crypto.NewVerifyPool(4)
	defer pool.Close()

	items := signedItems(t, kps, 300)
	batch := Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&batch, kps[0])
	if err := VerifyRequestDeep(&batch, reg, pool); err != nil {
		t.Fatalf("valid 300-record batch rejected: %v", err)
	}

	items[123].Sig = append([]byte(nil), items[123].Sig...)
	items[123].Sig[0] ^= 0x02
	items[250].Sig = append([]byte(nil), items[250].Sig...)
	items[250].Sig[50] ^= 0x08
	batch = Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&batch, kps[0])
	err := VerifyRequestDeep(&batch, reg, pool)
	if err == nil || !strings.Contains(err.Error(), "[123 250]") {
		t.Errorf("chunked verification missed the culprits: %v", err)
	}
}

// TestCorruptBatchRejectedHonestRecordsStillOrdered is the end-to-end
// acceptance scenario: a Byzantine primary proposes a batch hiding one forged
// record signature. Every backup rejects the proposal (naming the culprit),
// nothing is delivered from it, and the honest records subsequently order in
// a clean batch on all replicas.
func TestCorruptBatchRejectedHonestRecordsStillOrdered(t *testing.T) {
	c := newCluster(t, 4, nil)

	recs := []Request{
		{Payload: []byte("honest-1")},
		{Payload: []byte("forged")},
		{Payload: []byte("honest-2")},
	}
	SignRequest(&recs[0], c.kps[1])
	SignRequest(&recs[1], c.kps[2])
	SignRequest(&recs[2], c.kps[3])
	recs[1].Sig = append([]byte(nil), recs[1].Sig...)
	recs[1].Sig[10] ^= 0x80

	bad := Request{Payload: EncodeBatch(recs), Batch: true}
	SignRequest(&bad, c.kps[0])
	if err := VerifyRequestDeep(&bad, c.reg, nil); err == nil ||
		!strings.Contains(err.Error(), "batch record 1") {
		t.Fatalf("corrupt batch not pinpointed: %v", err)
	}

	// The Byzantine primary pushes the proposal straight at the backups
	// (bypassing its own engine, as a faulty node would).
	pp := &PrePrepare{View: 0, Seq: 1, Req: bad, Replica: 0}
	sign(pp, c.kps[0])
	for _, id := range c.ids[1:] {
		c.handle(id, c.engines[id].Receive(0, pp))
	}
	c.run()
	for _, id := range c.ids {
		if n := len(c.delivered[id]); n != 0 {
			t.Fatalf("replica %v delivered %d requests from a corrupt batch", id, n)
		}
	}

	// The primary (now behaving) re-batches the honest records; the slot is
	// still free, so they order normally everywhere.
	good := Request{Payload: EncodeBatch([]Request{recs[0], recs[2]}), Batch: true}
	SignRequest(&good, c.kps[0])
	c.handle(0, c.engines[0].Propose(good))
	c.run()
	c.assertAgreement()
	for _, id := range c.ids {
		got := c.delivered[id]
		if len(got) != 1 {
			t.Fatalf("replica %v delivered %d batches, want 1", id, len(got))
		}
		items, err := DecodeBatch(got[0].Req.Payload)
		if err != nil || len(items) != 2 {
			t.Fatalf("replica %v delivered batch = %d items, err %v", id, len(items), err)
		}
		if string(items[0].Payload) != "honest-1" || string(items[1].Payload) != "honest-2" {
			t.Errorf("replica %v ordered %q, %q", id, items[0].Payload, items[1].Payload)
		}
	}
}
