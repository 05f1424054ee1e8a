package core

import (
	"testing"
	"time"

	"zugchain/internal/crypto"
	"zugchain/internal/pbft"
)

// TestRestoreWindowClosesOpenRecord is the double-LOG regression: a record
// still open in R when state transfer (or recovery) restores it into the
// dedup window must be closed. Left open, its soft timer re-broadcasts it,
// and once the window slides past its sequence number a new primary orders
// it — and the chain logs it — a second time.
func TestRestoreWindowClosesOpenRecord(t *testing.T) {
	fx := newFixture(t, 1, func(c *Config) { c.WindowSeqs = 5 })
	fx.layer.OnBusRecord(0, []byte("record-90"))
	fx.layer.RestoreWindow([]WindowEntry{{Digest: crypto.Hash([]byte("record-90")), Seq: 1}})
	if n := fx.layer.OpenRequests(); n != 0 {
		t.Fatalf("restored record still open in R (%d open)", n)
	}

	// Slide the window past the restored record.
	for seq := uint64(2); seq <= 7; seq++ {
		r := pbft.Request{Payload: []byte{byte(seq)}}
		pbft.SignRequest(&r, fx.kps[0])
		fx.layer.OnDecide(seq, r)
	}
	fx.clk.Advance(time.Second)
	time.Sleep(20 * time.Millisecond)
	if n := fx.tr.numBroadcasts(); n != 0 {
		t.Fatalf("restored record re-broadcast %d times", n)
	}

	// Become primary: nothing left in R may be proposed again.
	fx.layer.OnNewPrimary(1, 1)
	for _, p := range fx.bft.proposals() {
		if string(p.Payload) == "record-90" {
			t.Fatal("restored record proposed for ordering a second time")
		}
	}
}

// TestRestoreWindowDropsBatchedRecord checks the primary side: a restored
// record waiting in the unflushed batch leaves it, and a batch emptied that
// way proposes nothing.
func TestRestoreWindowDropsBatchedRecord(t *testing.T) {
	fx := newFixture(t, 0, func(c *Config) {
		c.MaxBatch = 8
		c.MaxBatchDelay = 2 * time.Millisecond
	})
	fx.layer.OnBusRecord(0, []byte("a"))
	fx.layer.OnBusRecord(0, []byte("b"))
	fx.layer.RestoreWindow([]WindowEntry{{Digest: crypto.Hash([]byte("a")), Seq: 1}})

	fx.clk.Advance(2 * time.Millisecond)
	waitFor(t, func() bool { return len(fx.bft.proposals()) == 1 })
	if p := fx.bft.proposals()[0]; p.Batch || string(p.Payload) != "b" {
		t.Fatalf("flushed proposal = batch %v, %d payload bytes; want the plain record b", p.Batch, len(p.Payload))
	}

	fx.layer.OnBusRecord(0, []byte("c"))
	fx.layer.RestoreWindow([]WindowEntry{{Digest: crypto.Hash([]byte("c")), Seq: 2}})
	fx.clk.Advance(time.Second)
	time.Sleep(20 * time.Millisecond)
	if n := len(fx.bft.proposals()); n != 1 {
		t.Fatalf("emptied batch still proposed (%d proposals)", n)
	}
	if n := fx.layer.OpenRequests(); n != 1 {
		t.Errorf("open requests = %d, want 1 (b, proposed and undecided)", n)
	}
}
