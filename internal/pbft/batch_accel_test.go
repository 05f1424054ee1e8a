package pbft

import (
	"strings"
	"testing"
)

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
	err := VerifyRequestDeep(&batch, reg)
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
	err = VerifyRequestDeep(&batch, reg)
	if err == nil || !strings.Contains(err.Error(), "[7 13]") {
		t.Errorf("error does not name both culprits: %v", err)
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
	if err := VerifyRequestDeep(&bad, c.reg); err == nil ||
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
