package node

import (
	"testing"
	"time"

	"zugchain/internal/pbft"
	"zugchain/internal/signal"
)

// TestClusterBatchingIdenticalChains runs the full pipeline with request
// batching enabled on every node: the primary coalesces concurrent bus
// records into batched proposals, and all replicas must still converge on
// identical, per-record chains with exactly-once logging.
func TestClusterBatchingIdenticalChains(t *testing.T) {
	c := newCluster(t, func(cfg *Config) {
		cfg.MaxBatch = 8
		cfg.MaxBatchDelay = 2 * time.Millisecond
	}, nil)
	c.tickUntilSeq(30, 30*time.Second)
	height := minHeight(c.nodes)

	for i, n := range c.nodes {
		if err := n.Store().VerifyChain(); err != nil {
			t.Errorf("node %d chain: %v", i, err)
		}
	}
	c.assertChainsAgree(height)

	// The batching stage actually engaged on whichever node was primary.
	flushes := uint64(0)
	for _, n := range c.nodes {
		flushes += n.FrontEnd().Batches().Flushes.Load()
	}
	if flushes == 0 {
		t.Error("no batch flushes recorded on any node")
	}

	// Exactly-once per record, even through batched agreement slots.
	seen := make(map[uint64]int)
	blocks, err := c.nodes[0].Store().Range(1, height)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		for _, e := range b.Entries {
			rec, err := signal.UnmarshalRecord(e.Payload)
			if err != nil {
				t.Fatalf("entry payload: %v", err)
			}
			seen[rec.Cycle]++
		}
	}
	for cycle, count := range seen {
		if count != 1 {
			t.Errorf("cycle %d logged %d times", cycle, count)
		}
	}
}

// TestClusterByzantinePrimaryBatchDuplicate has the initial primary propose
// a hand-crafted batch that carries the same record twice — a primary that
// fails (or refuses) to filter duplicates. Every correct replica must log
// the duplicated payload exactly once, suspect the primary, and keep making
// progress under the next one.
func TestClusterByzantinePrimaryBatchDuplicate(t *testing.T) {
	c := newCluster(t, func(cfg *Config) {
		cfg.MaxBatch = 8
		cfg.MaxBatchDelay = 2 * time.Millisecond
	}, nil)

	// Node 0 is the view-0 primary. Craft its Byzantine proposal: three
	// properly signed records, one payload appearing twice.
	fresh := pbft.Request{Payload: []byte("byz-fresh")}
	pbft.SignRequest(&fresh, c.kps[0])
	dup := pbft.Request{Payload: []byte("byz-dup")}
	pbft.SignRequest(&dup, c.kps[0])
	batch := pbft.Request{
		Payload: pbft.EncodeBatch([]pbft.Request{dup, fresh, dup}),
		Batch:   true,
	}
	pbft.SignRequest(&batch, c.kps[0])
	c.nodes[0].Runner().Propose(batch)

	// The batch passes deep verification (all inner signatures are good),
	// so it is ordered — and every replica's decide path then detects the
	// in-batch duplicate.
	deadline := time.Now().Add(30 * time.Second)
	for {
		dups := 0
		for _, n := range c.nodes {
			if n.FrontEnd().Counters().Duplicates.Load() > 0 {
				dups++
			}
		}
		if dups == len(c.nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d nodes flagged the in-batch duplicate", dups, len(c.nodes))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The suspicion triggers a view change; the cluster keeps ordering bus
	// traffic under the new primary.
	c.tickUntilSeq(20, 60*time.Second)
	c.assertChainsAgree(minHeight(c.nodes))

	// The Byzantine payloads appear exactly once on every chain.
	for i, n := range c.nodes {
		counts := map[string]int{}
		blocks, err := n.Store().Range(1, n.Store().HeadIndex())
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			for _, e := range b.Entries {
				counts[string(e.Payload)]++
			}
		}
		if counts["byz-dup"] != 1 {
			t.Errorf("node %d logged byz-dup %d times, want exactly 1", i, counts["byz-dup"])
		}
		if counts["byz-fresh"] != 1 {
			t.Errorf("node %d logged byz-fresh %d times, want exactly 1", i, counts["byz-fresh"])
		}
		if err := n.Store().VerifyChain(); err != nil {
			t.Errorf("node %d chain: %v", i, err)
		}
	}
}
