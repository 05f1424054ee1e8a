package node

import (
	"context"
	"testing"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/export"
	"zugchain/internal/mvb"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
)

// cluster wires four ZugChain nodes to a shared bus and network.
type cluster struct {
	t       *testing.T
	net     *transport.Network
	bus     *mvb.Bus
	nodes   []*Node
	readers []*mvb.Reader
	kps     map[crypto.NodeID]*crypto.KeyPair
	reg     *crypto.Registry
	cancel  context.CancelFunc
}

func newCluster(t *testing.T, tweak func(*Config), faults []mvb.FaultConfig) *cluster {
	t.Helper()
	c := &cluster{
		t:   t,
		net: transport.NewNetwork(),
		kps: make(map[crypto.NodeID]*crypto.KeyPair),
	}
	gen := signal.NewGenerator(signal.DefaultGeneratorConfig())
	c.bus = mvb.NewBus(mvb.Config{})
	c.bus.Attach(mvb.NewSignalDevice(gen))

	ids := []crypto.NodeID{0, 1, 2, 3}
	var pairs []*crypto.KeyPair
	for _, id := range ids {
		kp := crypto.MustGenerateKeyPair(id)
		c.kps[id] = kp
		pairs = append(pairs, kp)
	}
	c.reg = crypto.NewRegistry(pairs...)

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	// Under the race detector on a loaded single-core host, message handling
	// can take longer than these production-scale timeouts, and a cluster
	// whose view timeout fires faster than a view change completes livelocks
	// in a view-change storm until the CPU frees up. Scale the timeouts like
	// tickUntilSeq scales its deadlines.
	scale := time.Duration(1)
	if raceEnabled {
		scale = 5
	}
	for i, id := range ids {
		cfg := Config{
			ID:          id,
			Replicas:    ids,
			SoftTimeout: scale * 200 * time.Millisecond,
			HardTimeout: scale * 200 * time.Millisecond,
			ViewTimeout: scale * 400 * time.Millisecond,
		}
		if tweak != nil {
			tweak(&cfg)
		}
		n, err := New(cfg, c.kps[id], c.reg, c.net.Endpoint(id), clock.Real{})
		if err != nil {
			t.Fatal(err)
		}
		var fc mvb.FaultConfig
		if faults != nil {
			fc = faults[i]
		}
		reader := c.bus.NewReader(fc, int64(i)+1)
		c.readers = append(c.readers, reader)
		c.nodes = append(c.nodes, n)
		n.Start()
		n.RunBus(ctx, reader)
	}
	t.Cleanup(func() {
		cancel()
		for _, n := range c.nodes {
			n.Stop()
		}
		c.net.Close()
	})
	return c
}

// tickUntilSeq drives bus cycles until every node's chain has sealed
// through agreement slot seq — its head block's LastSeq reaches seq — or the
// deadline passes. Blocks are sealed per slot, so a seq names how much was
// ordered independently of how many slots logged nothing.
func (c *cluster) tickUntilSeq(seq uint64, deadline time.Duration) {
	c.t.Helper()
	if raceEnabled {
		deadline *= 3
	}
	end := time.Now().Add(deadline)
	for {
		c.bus.Tick()
		time.Sleep(5 * time.Millisecond)
		if minSeq(c.nodes) >= seq {
			return
		}
		if time.Now().After(end) {
			for i, n := range c.nodes {
				c.t.Logf("node %d: head=%d seq=%d open=%d", i, n.Store().HeadIndex(), n.Store().Head().LastSeq, n.FrontEnd().OpenRequests())
			}
			c.t.Fatalf("chains did not reach seq %d in %v", seq, deadline)
		}
	}
}

// minHeight returns the lowest chain height across nodes.
func minHeight(nodes []*Node) uint64 {
	low := nodes[0].Store().HeadIndex()
	for _, n := range nodes[1:] {
		if h := n.Store().HeadIndex(); h < low {
			low = h
		}
	}
	return low
}

// minSeq returns the lowest chain head LastSeq across nodes.
func minSeq(nodes []*Node) uint64 {
	low := nodes[0].Store().Head().LastSeq
	for _, n := range nodes[1:] {
		low = min(low, n.Store().Head().LastSeq)
	}
	return low
}

// assertChainsAgree verifies every node holds identical blocks 1..height.
func (c *cluster) assertChainsAgree(height uint64) {
	c.t.Helper()
	ref := c.nodes[0].Store()
	for i, n := range c.nodes {
		for idx := uint64(1); idx <= height; idx++ {
			a, errA := ref.Get(idx)
			b, errB := n.Store().Get(idx)
			if errA != nil || errB != nil {
				c.t.Fatalf("node %d block %d: %v %v", i, idx, errA, errB)
			}
			if a.Hash() != b.Hash() {
				c.t.Errorf("node %d block %d diverges", i, idx)
			}
		}
	}
}

func TestClusterEndToEndIdenticalChains(t *testing.T) {
	c := newCluster(t, nil, nil)
	c.tickUntilSeq(30, 30*time.Second)
	height := minHeight(c.nodes)

	// All chains verify and agree block by block.
	ref := c.nodes[0].Store()
	for i, n := range c.nodes {
		store := n.Store()
		if err := store.VerifyChain(); err != nil {
			t.Errorf("node %d chain: %v", i, err)
		}
		for idx := uint64(1); idx <= height; idx++ {
			a, errA := ref.Get(idx)
			b, errB := store.Get(idx)
			if errA != nil || errB != nil {
				t.Fatalf("node %d block %d: %v %v", i, idx, errA, errB)
			}
			if a.Hash() != b.Hash() {
				t.Errorf("node %d block %d diverges", i, idx)
			}
		}
	}

	// Duplicate filtering: each bus cycle must appear exactly once in the
	// chain even though all four nodes read it.
	seen := make(map[uint64]int)
	blocks, err := ref.Range(1, height)
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

func TestClusterToleratesBusFaults(t *testing.T) {
	faults := []mvb.FaultConfig{
		{DropRate: 0.3},
		{BitFlipRate: 0.2},
		{DelayRate: 0.2},
		{}, // one clean reader
	}
	c := newCluster(t, nil, faults)
	c.tickUntilSeq(20, 60*time.Second)

	for i, n := range c.nodes {
		if err := n.Store().VerifyChain(); err != nil {
			t.Errorf("node %d chain: %v", i, err)
		}
	}
	// Chains agree despite per-node bus faults.
	a := c.nodes[0].Store()
	b := c.nodes[3].Store()
	for idx := uint64(1); idx <= minHeight(c.nodes); idx++ {
		ba, errA := a.Get(idx)
		bb, errB := b.Get(idx)
		if errA != nil || errB != nil {
			t.Fatalf("block %d: %v %v", idx, errA, errB)
		}
		if ba.Hash() != bb.Hash() {
			t.Errorf("block %d diverges across nodes", idx)
		}
	}
}

func TestClusterExportAndPrune(t *testing.T) {
	dcID := crypto.DataCenterIDBase
	dcKP := crypto.MustGenerateKeyPair(dcID)
	c := newCluster(t, func(cfg *Config) {
		cfg.DataCenters = []crypto.NodeID{dcID}
		cfg.DeleteQuorum = 1
	}, nil)
	c.reg.Add(dcID, dcKP.Public)

	archive, err := blockchain.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	dcMux := transport.NewMux(c.net.Endpoint(dcID))
	dc := export.NewDataCenter(export.DataCenterConfig{
		ID:          dcID,
		Replicas:    []crypto.NodeID{0, 1, 2, 3},
		ReadTimeout: 5 * time.Second,
	}, dcKP, c.reg, archive, dcMux.Channel(0x40, 0x4f))

	// Blocks become exportable once a checkpoint covering them is stable:
	// order through three checkpoints.
	c.tickUntilSeq(30, 30*time.Second)

	group := &export.Group{DCs: []*export.DataCenter{dc}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	report, err := group.ExportRound(ctx)
	if err != nil {
		t.Fatalf("ExportRound: %v", err)
	}
	if report.BlockIndex < 3 {
		t.Errorf("exported through block %d", report.BlockIndex)
	}
	if err := archive.VerifyChain(); err != nil {
		t.Errorf("archive: %v", err)
	}
	// Replicas pruned to the exported index.
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range c.nodes {
		for n.Store().Base() < report.BlockIndex {
			if time.Now().After(deadline) {
				t.Fatalf("node %v base = %d, want %d", n.cfg.ID, n.Store().Base(), report.BlockIndex)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err := n.Store().VerifyChain(); err != nil {
			t.Errorf("pruned chain: %v", err)
		}
	}
}

func TestClusterCompactionAgreement(t *testing.T) {
	c := newCluster(t, nil, nil)
	c.tickUntilSeq(30, 30*time.Second)

	c.nodes[0].ProposeCompaction(2)
	// The marker is ordered like any request and executed on every node.
	wait := 20 * time.Second
	if raceEnabled {
		wait = 90 * time.Second
	}
	deadline := time.Now().Add(wait)
	for _, n := range c.nodes {
		for {
			_, err := n.Store().Get(1)
			if err != nil { // compacted away
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("compaction never executed")
			}
			c.bus.Tick()
			time.Sleep(10 * time.Millisecond)
		}
		if _, err := n.Store().Header(1); err != nil {
			t.Errorf("node %v lost header 1", n.cfg.ID)
		}
		if err := n.Store().VerifyChain(); err != nil {
			t.Errorf("node %v chain after compaction: %v", n.cfg.ID, err)
		}
	}
}

func TestCompactionMarkerParsing(t *testing.T) {
	tests := []struct {
		payload string
		want    uint64
		ok      bool
	}{
		{"zc-compact:42", 42, true},
		{"zc-compact:0", 0, true},
		{"zc-compact:", 0, false},
		{"zc-compact:abc", 0, false},
		{"speed=100", 0, false},
	}
	for _, tt := range tests {
		got, ok := parseCompaction([]byte(tt.payload))
		if got != tt.want || ok != tt.ok {
			t.Errorf("parseCompaction(%q) = %d, %v", tt.payload, got, ok)
		}
	}
}

// TestParseCompactionNonMarkerDoesNotAllocate guards the LOG path: every
// logged record is checked for the compaction marker, and an ordinary
// record must not be copied to do it.
func TestParseCompactionNonMarkerDoesNotAllocate(t *testing.T) {
	payload := make([]byte, 1024)
	if n := testing.AllocsPerRun(100, func() { parseCompaction(payload) }); n != 0 {
		t.Errorf("parseCompaction on a record allocates %v times per call, want 0", n)
	}
}

func TestMultipleBusSources(t *testing.T) {
	c := newCluster(t, nil, nil)
	// Attach a second, independent bus (e.g. a ProfiNet segment) to every
	// node as input source 1.
	gen2 := signal.NewGenerator(signal.GeneratorConfig{Seed: 99, StationSpacing: 500})
	bus2 := mvb.NewBus(mvb.Config{})
	bus2.Attach(mvb.NewSignalDevice(gen2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i, n := range c.nodes {
		n.RunBusSource(ctx, 1, bus2.NewReader(mvb.FaultConfig{}, int64(i)+50))
	}

	// Drive both buses; records from both sources must land in the chain.
	// The tick pacing is deliberately slow: with the race detector on,
	// signing throughput drops by an order of magnitude and a fast tick
	// loop would outrun consensus.
	end := time.Now().Add(60 * time.Second)
	for minHeight(c.nodes) < 30 {
		c.bus.Tick()
		bus2.Tick()
		time.Sleep(15 * time.Millisecond)
		if time.Now().After(end) {
			t.Fatalf("chain stuck at height %d", minHeight(c.nodes))
		}
	}

	// Both sources' data is present: source-0 and source-1 signal streams
	// have different seeds, so their odometer values differ; just verify
	// both cycles' record counts exceed what a single bus could produce.
	blocks, err := c.nodes[0].Store().Range(1, 30)
	if err != nil {
		t.Fatal(err)
	}
	perCycle := make(map[uint64]int)
	for _, b := range blocks {
		for _, e := range b.Entries {
			rec, err := signal.UnmarshalRecord(e.Payload)
			if err != nil {
				t.Fatal(err)
			}
			perCycle[rec.Cycle]++
		}
	}
	two := 0
	for _, n := range perCycle {
		if n >= 2 {
			two++
		}
	}
	if two == 0 {
		t.Error("no cycle carries records from both buses")
	}
	c.assertChainsAgree(30)
}

// TestClusterOverTCP runs the full node pipeline over real TCP sockets.
func TestClusterOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	ids := []crypto.NodeID{0, 1, 2, 3}
	kps := make(map[crypto.NodeID]*crypto.KeyPair)
	var pairs []*crypto.KeyPair
	for _, id := range ids {
		kp := crypto.MustGenerateKeyPair(id)
		kps[id] = kp
		pairs = append(pairs, kp)
	}
	reg := crypto.NewRegistry(pairs...)

	// Start listeners first so every peer address is known.
	transports := make(map[crypto.NodeID]*transport.TCP)
	addrs := make(map[crypto.NodeID]string)
	for _, id := range ids {
		tr, err := transport.NewTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		transports[id] = tr
		addrs[id] = tr.Addr()
	}
	for _, id := range ids {
		peers := make(map[crypto.NodeID]string)
		for other, addr := range addrs {
			if other != id {
				peers[other] = addr
			}
		}
		transports[id].SetPeers(peers)
	}

	gen := signal.NewGenerator(signal.DefaultGeneratorConfig())
	bus := mvb.NewBus(mvb.Config{})
	bus.Attach(mvb.NewSignalDevice(gen))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var nodes []*Node
	for i, id := range ids {
		n, err := New(Config{ID: id, Replicas: ids}, kps[id], reg, transports[id], clock.Real{})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		n.RunBus(ctx, bus.NewReader(mvb.FaultConfig{}, int64(i)))
		nodes = append(nodes, n)
	}
	defer func() {
		cancel()
		for _, n := range nodes {
			n.Stop()
		}
		for _, tr := range transports {
			tr.Close()
		}
	}()

	end := time.Now().Add(60 * time.Second)
	for nodes[0].Store().Head().LastSeq < 20 || nodes[3].Store().Head().LastSeq < 20 {
		bus.Tick()
		time.Sleep(5 * time.Millisecond)
		if time.Now().After(end) {
			t.Fatalf("TCP cluster stuck: heights %d %d %d %d",
				nodes[0].Store().HeadIndex(), nodes[1].Store().HeadIndex(),
				nodes[2].Store().HeadIndex(), nodes[3].Store().HeadIndex())
		}
	}
	height := min(nodes[0].Store().HeadIndex(), nodes[3].Store().HeadIndex())
	a, _ := nodes[0].Store().Get(height)
	b, err := nodes[3].Store().Get(height)
	if err != nil || a.Hash() != b.Hash() {
		t.Errorf("TCP cluster diverged: %v", err)
	}
}

// TestClusterSealsPerSlot checks the chain shape: a block per executed slot
// that logged a record, an empty block only at a checkpoint slot that
// logged nothing, and at every stable checkpoint a block ending at its seq
// whose hash is the checkpoint digest. The chains are identical.
func TestClusterSealsPerSlot(t *testing.T) {
	c := newCluster(t, nil, nil)
	c.tickUntilSeq(30, 30*time.Second)
	c.assertChainsAgree(minHeight(c.nodes))

	for i, n := range c.nodes {
		store := n.Store()
		var prev uint64
		for idx := uint64(1); idx <= store.HeadIndex(); idx++ {
			b, err := store.Get(idx)
			if err != nil {
				t.Fatalf("node %d block %d: %v", i, idx, err)
			}
			if b.FirstSeq != b.LastSeq || b.LastSeq <= prev {
				t.Errorf("node %d block %d covers slots %d–%d after slot %d, want one new slot", i, idx, b.FirstSeq, b.LastSeq, prev)
			}
			if len(b.Entries) == 0 && b.LastSeq%pbft.DefaultCheckpointInterval != 0 {
				t.Errorf("node %d block %d is empty at non-checkpoint slot %d", i, idx, b.LastSeq)
			}
			prev = b.LastSeq
		}

		var proof pbft.CheckpointProof
		n.Runner().Inspect(func(e *pbft.Engine) { proof = e.StableCheckpoint() })
		if proof.Seq < pbft.DefaultCheckpointInterval {
			t.Fatalf("node %d: no stable checkpoint after seq 30", i)
		}
		h, err := store.HeaderAtSeq(proof.Seq)
		if err != nil || h.LastSeq != proof.Seq || h.Hash() != proof.StateDigest {
			t.Errorf("node %d: stable checkpoint %d certifies %s, block ending there is %+v (%v)",
				i, proof.Seq, proof.StateDigest.Short(), h, err)
		}
	}
}
