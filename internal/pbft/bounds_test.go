package pbft

import (
	"fmt"
	"testing"

	"zugchain/internal/crypto"
)

// TestByzantineFloodKeepsEngineMapsBounded: one keyed Byzantine replica
// signs ViewChanges for 10⁴ distinct views and Checkpoints at 10⁴ distinct
// seqs. The engine keeps one ViewChange per replica, checkpoint votes only
// at interval multiples up to two watermark windows ahead, and one
// far-ahead vote per replica, so no map grows past n entries; ordering
// still works afterwards.
func TestByzantineFloodKeepsEngineMapsBounded(t *testing.T) {
	const flood = 10_000
	c := newCluster(t, 4, nil)
	const byz = crypto.NodeID(3)
	e := c.engines[0]
	n := len(c.ids)
	for i := uint64(1); i <= flood; i++ {
		vc := &ViewChange{NewView: i, Replica: byz}
		sign(vc, c.kps[byz])
		c.handle(0, e.Receive(byz, vc))
		cp := &Checkpoint{Seq: i, StateDigest: crypto.Hash([]byte(fmt.Sprint(i))), Replica: byz}
		sign(cp, c.kps[byz])
		c.handle(0, e.Receive(byz, cp))
		if len(e.vcs) > n || len(e.checkpoints) > n || len(e.ahead) > n {
			t.Fatalf("after %d messages: %d view-change views, %d checkpoint seqs, %d far-ahead votes; want at most %d each",
				i, len(e.vcs), len(e.checkpoints), len(e.ahead), n)
		}
	}
	c.queue = nil // the lone Byzantine replica moved nobody
	if e.View() != 0 || e.InViewChange() {
		t.Fatalf("flood moved replica 0 to view %d", e.View())
	}
	for i := 0; i < 12; i++ {
		c.propose(0, fmt.Sprintf("after-%d", i))
	}
	c.run()
	if got := len(c.delivered[0]); got != 12 {
		t.Errorf("replica 0 delivered %d of 12 requests after the flood", got)
	}
	if len(c.stable[0]) == 0 || c.stable[0][0].Seq != 10 {
		t.Errorf("stable checkpoints after the flood = %v, want one at 10", c.stable[0])
	}
	c.assertAgreement()
}

// TestFarLaggingReplicaAdoptsCheckpoint: a replica cut off for more than
// two watermark windows sees only checkpoint votes beyond the range it
// collects. Once 2f+1 replicas' newest votes agree, it adopts that
// checkpoint, requests a state transfer and resumes ordering.
func TestFarLaggingReplicaAdoptsCheckpoint(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.filter = func(p packet) bool { return p.to != 3 }
	for i := 0; i < 55; i++ {
		c.propose(0, fmt.Sprintf("cut-%d", i))
	}
	c.run()
	c.filter = nil
	for i := 0; i < 5; i++ {
		c.propose(0, fmt.Sprintf("healed-%d", i))
	}
	c.run()
	lag := c.engines[3]
	if len(c.transfers[3]) == 0 || c.transfers[3][0].TargetSeq != 60 {
		t.Fatalf("laggard's state transfers = %v, want one to seq 60", c.transfers[3])
	}
	if lag.Executed() != 60 || lag.StableCheckpoint().Seq != 60 {
		t.Fatalf("laggard executed %d, stable at %d; want 60", lag.Executed(), lag.StableCheckpoint().Seq)
	}
	c.propose(0, "next")
	c.run()
	if got := c.delivered[3]; len(got) == 0 || string(got[len(got)-1].Req.Payload) != "next" {
		t.Error("laggard did not resume ordering")
	}
	c.assertAgreement()
}
