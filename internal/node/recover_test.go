package node

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/mvb"
	"zugchain/internal/obsv"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
)

// restartCluster is a four-node cluster whose members persist to disk and
// can be crashed and restarted individually.
type restartCluster struct {
	t       *testing.T
	net     *transport.Network
	bus     *mvb.Bus
	ids     []crypto.NodeID
	kps     map[crypto.NodeID]*crypto.KeyPair
	reg     *crypto.Registry
	dirs    []string
	nodes   []*Node
	cancels []context.CancelFunc
	seeds   []int64
}

func newRestartCluster(t *testing.T) *restartCluster {
	t.Helper()
	c := &restartCluster{
		t:   t,
		net: transport.NewNetwork(),
		ids: []crypto.NodeID{0, 1, 2, 3},
		kps: make(map[crypto.NodeID]*crypto.KeyPair),
	}
	gen := signal.NewGenerator(signal.DefaultGeneratorConfig())
	c.bus = mvb.NewBus(mvb.Config{})
	c.bus.Attach(mvb.NewSignalDevice(gen))

	var pairs []*crypto.KeyPair
	for _, id := range c.ids {
		kp := crypto.MustGenerateKeyPair(id)
		c.kps[id] = kp
		pairs = append(pairs, kp)
	}
	c.reg = crypto.NewRegistry(pairs...)
	c.nodes = make([]*Node, len(c.ids))
	c.cancels = make([]context.CancelFunc, len(c.ids))
	c.seeds = make([]int64, len(c.ids))
	for i := range c.ids {
		c.dirs = append(c.dirs, t.TempDir())
		c.seeds[i] = int64(i) + 1
		c.start(i)
	}
	t.Cleanup(func() {
		for i := range c.nodes {
			if c.nodes[i] != nil {
				c.cancels[i]()
				c.nodes[i].Stop()
			}
		}
		c.net.Close()
	})
	return c
}

func (c *restartCluster) config(i int) Config {
	return Config{
		ID:                 c.ids[i],
		Replicas:           c.ids,
		DataDir:            c.dirs[i],
		SoftTimeout:        200 * time.Millisecond,
		HardTimeout:        200 * time.Millisecond,
		ViewTimeout:        400 * time.Millisecond,
		StateRetryInterval: 50 * time.Millisecond,
	}
}

// start builds (or rebuilds, after crash) node i from its data dir.
func (c *restartCluster) start(i int) *Node {
	c.t.Helper()
	n, err := New(c.config(i), c.kps[c.ids[i]], c.reg, c.net.Endpoint(c.ids[i]), clock.Real{})
	if err != nil {
		c.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.nodes[i] = n
	c.cancels[i] = cancel
	n.Start()
	// Distinct reader seeds per incarnation keep bus fault schedules from
	// repeating; faults are off here anyway.
	c.seeds[i] += 100
	n.RunBus(ctx, c.bus.NewReader(mvb.FaultConfig{}, c.seeds[i]))
	return n
}

// crash stops node i ungracefully from the cluster's point of view: its bus
// feed dies, the process state is discarded, and its network attachment is
// released. Only the data dir survives.
func (c *restartCluster) crash(i int) {
	c.t.Helper()
	c.cancels[i]()
	c.nodes[i].Stop()
	c.nodes[i] = nil
	c.net.Remove(c.ids[i])
}

// tickUntil drives bus cycles until cond holds or the deadline passes.
func (c *restartCluster) tickUntil(cond func() bool, deadline time.Duration, what string) {
	c.t.Helper()
	if raceEnabled {
		deadline *= 3
	}
	end := time.Now().Add(deadline)
	for !cond() {
		c.bus.Tick()
		time.Sleep(5 * time.Millisecond)
		if time.Now().After(end) {
			for i, n := range c.nodes {
				if n != nil {
					c.t.Logf("node %d: head=%d", i, n.Store().HeadIndex())
				}
			}
			c.t.Fatalf("%s: not reached in %v", what, deadline)
		}
	}
}

// allAtSeq reports whether every running node's chain has sealed through
// agreement slot seq.
func (c *restartCluster) allAtSeq(seq uint64) func() bool {
	return func() bool {
		for _, n := range c.nodes {
			if n != nil && n.Store().Head().LastSeq < seq {
				return false
			}
		}
		return true
	}
}

// assertNoDuplicateLogs fails if any payload digest appears in more than one
// chain entry — the double-LOG a restarted replica must not commit.
func assertNoDuplicateLogs(t *testing.T, n *Node) {
	t.Helper()
	seen := make(map[crypto.Digest]uint64)
	store := n.Store()
	for idx := store.Base() + 1; idx <= store.HeadIndex(); idx++ {
		b, err := store.Get(idx)
		if err != nil {
			t.Fatalf("block %d: %v", idx, err)
		}
		for _, e := range b.Entries {
			d := crypto.Hash(e.Payload)
			if prev, ok := seen[d]; ok {
				t.Errorf("payload logged twice: seq %d and %d", prev, e.Seq)
			}
			seen[d] = e.Seq
		}
	}
}

func TestNodeCrashRestartRecoversAndRejoins(t *testing.T) {
	c := newRestartCluster(t)
	c.tickUntil(c.allAtSeq(20), 30*time.Second, "initial seq 20")

	var preView uint64
	c.nodes[3].Runner().Inspect(func(e *pbft.Engine) { preView, _, _ = e.ViewState() })

	c.crash(3)

	// The remaining three keep ordering: f=1 crash tolerated.
	c.tickUntil(func() bool { return minSeq(c.nodes[:3]) >= 30 }, 30*time.Second, "post-crash seq 30")

	n := c.start(3)
	rec := n.Recovery()
	if rec.WALRecords == 0 {
		t.Error("restart replayed no WAL records")
	}
	if rec.RestoredSeq == 0 {
		t.Error("restart restored no executed sequence")
	}
	if rec.WindowRestored == 0 {
		t.Error("restart reseeded no dedup-window entries")
	}
	if rec.RestoredView < preView {
		t.Errorf("restored view %d below pre-crash view %d", rec.RestoredView, preView)
	}

	c.tickUntil(c.allAtSeq(40), 60*time.Second, "post-restart seq 40")

	// Chains agree over the common range, and the restarted replica never
	// logged a payload twice.
	ref := c.nodes[0].Store()
	for idx := uint64(1); idx <= min(ref.HeadIndex(), n.Store().HeadIndex()); idx++ {
		a, errA := ref.Get(idx)
		b, errB := n.Store().Get(idx)
		if errA != nil || errB != nil {
			t.Fatalf("block %d: %v %v", idx, errA, errB)
		}
		if a.Hash() != b.Hash() {
			t.Errorf("block %d diverges after restart", idx)
		}
	}
	if err := n.Store().VerifyChain(); err != nil {
		t.Errorf("restarted chain: %v", err)
	}
	assertNoDuplicateLogs(t, n)
}

// TestNodeRestartWithWipedWALRestoresFromChain covers the "WAL gone, chain
// intact" restart (a wiped WAL dir, or the WAL newly enabled over an
// existing DataDir): the executed watermark and dedup window must still be
// restored from the chain head, or the replica re-executes and double-LOGs
// sequences whose effects are already durable.
func TestNodeRestartWithWipedWALRestoresFromChain(t *testing.T) {
	c := newRestartCluster(t)
	c.tickUntil(c.allAtSeq(20), 30*time.Second, "initial seq 20")

	c.crash(3)
	if err := os.RemoveAll(filepath.Join(c.dirs[3], "wal")); err != nil {
		t.Fatal(err)
	}

	n := c.start(3)
	rec := n.Recovery()
	if rec.WALRecords != 0 {
		t.Errorf("wiped WAL replayed %d records", rec.WALRecords)
	}
	if rec.RestoredSeq == 0 {
		t.Error("executed watermark not restored from the chain head")
	}
	if rec.WindowRestored == 0 {
		t.Error("dedup window not reseeded from chain blocks")
	}

	c.tickUntil(c.allAtSeq(30), 60*time.Second, "post-restart seq 30")
	if err := n.Store().VerifyChain(); err != nil {
		t.Errorf("restarted chain: %v", err)
	}
	assertNoDuplicateLogs(t, n)
}

// TestGapDigestIsPerReplica: the deliberately divergent checkpoint digest a
// lagging replica reports must differ across replicas, so correlated
// lagging can never assemble 2f+1 matching digests into a stable checkpoint
// on a phantom state.
func TestGapDigestIsPerReplica(t *testing.T) {
	net := transport.NewNetwork()
	defer net.Close()
	kp0, kp1 := crypto.MustGenerateKeyPair(0), crypto.MustGenerateKeyPair(1)
	// NewEngine derives a Commit MAC key with every replica, so the
	// registry must know all four, as in a deployment.
	reg := crypto.NewRegistry(kp0, kp1, crypto.MustGenerateKeyPair(2), crypto.MustGenerateKeyPair(3))
	ids := []crypto.NodeID{0, 1, 2, 3}

	n0, err := New(Config{ID: 0, Replicas: ids}, kp0, reg, net.Endpoint(0), clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	n0.Start()
	defer n0.Stop()
	n1, err := New(Config{ID: 1, Replicas: ids}, kp1, reg, net.Endpoint(1), clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	n1.Start()
	defer n1.Stop()

	// Seq 20 maps to block index 2 on a fresh chain: both nodes hit the
	// execution-gap path and must report distinct divergent digests.
	d0 := (*pbftApp)(n0).CheckpointDigest(20)
	d1 := (*pbftApp)(n1).CheckpointDigest(20)
	if d0 == d1 {
		t.Fatal("gap checkpoint digests identical across replicas: 2f+1 lagging replicas could certify a phantom state")
	}
}

// TestRestartBetweenCheckpointsKeepsSealingPerSlot: a replica crashed
// between two checkpoints restarts with its builder on its store head, not
// on the last checkpoint block. It keeps sealing a block per slot itself,
// not only installing state transfers, and every chain ends identical.
func TestRestartBetweenCheckpointsKeepsSealingPerSlot(t *testing.T) {
	c := newRestartCluster(t)
	// Tick one record at a time and let the cluster settle, until every
	// replica's chain ends at the same slot between two checkpoints.
	var crashSeq uint64
	c.tickUntil(func() bool {
		time.Sleep(20 * time.Millisecond)
		crashSeq = c.nodes[3].Store().Head().LastSeq
		return crashSeq > 20 && crashSeq%pbft.DefaultCheckpointInterval != 0 && minSeq(c.nodes) == crashSeq &&
			c.nodes[0].Store().Head().LastSeq == crashSeq
	}, 30*time.Second, "all replicas at one slot between checkpoints past seq 20")
	c.crash(3)

	n := c.start(3)
	restartHead := n.Store().HeadIndex()
	if rec := n.Recovery(); rec.RestoredSeq != crashSeq {
		t.Errorf("restored executed seq %d, want the chain head's %d", rec.RestoredSeq, crashSeq)
	}
	c.tickUntil(c.allAtSeq(crashSeq+30), 60*time.Second, "thirty slots after the restart")

	transferred := 0
	for _, e := range n.Obs().Journal.Events() {
		var k int
		if e.Kind == obsv.EventStateTransfer {
			if _, err := fmt.Sscanf(e.Detail, "installed-blocks=%d", &k); err == nil {
				transferred += k
			}
		}
	}
	if gained := int(n.Store().HeadIndex() - restartHead); gained <= transferred {
		t.Errorf("restarted replica sealed no block itself: %d blocks since restart, %d transferred", gained, transferred)
	}

	nodes := c.nodes
	height := minHeight(nodes)
	ref := nodes[0].Store()
	for idx := uint64(1); idx <= height; idx++ {
		want, err := ref.Get(idx)
		if err != nil {
			t.Fatal(err)
		}
		if want.FirstSeq != want.LastSeq {
			t.Errorf("block %d covers slots %d–%d, want one", idx, want.FirstSeq, want.LastSeq)
		}
		for i, other := range nodes[1:] {
			if got, err := other.Store().Get(idx); err != nil || got.Hash() != want.Hash() {
				t.Errorf("node %d block %d diverges: %v", i+1, idx, err)
			}
		}
	}
	if err := n.Store().VerifyChain(); err != nil {
		t.Errorf("restarted chain: %v", err)
	}
	assertNoDuplicateLogs(t, n)
}

// TestStopMidStreamLeavesQuorumPrefix: a replica stopped while slots are
// still being decided must leave on disk only blocks the quorum's chain
// holds too. Each round stops replica 3 right after feeding the bus, with
// slots in flight, restarts it, and compares its recovered chain with
// replica 0's.
func TestStopMidStreamLeavesQuorumPrefix(t *testing.T) {
	c := newRestartCluster(t)
	for round := 0; round < 8; round++ {
		c.tickUntil(func() bool { return minSeq(c.nodes) >= uint64(round+1)*15 }, 30*time.Second, "progress before the stop")
		for i := 0; i < 3; i++ {
			c.bus.Tick()
		}
		c.crash(3)
		n := c.start(3)
		head := n.Store().HeadIndex()
		c.tickUntil(func() bool { return c.nodes[0].Store().HeadIndex() >= head }, 30*time.Second, "replica 0 past the restarted head")
		for idx := uint64(1); idx <= head; idx++ {
			a, errA := c.nodes[0].Store().Get(idx)
			b, errB := n.Store().Get(idx)
			if errA != nil || errB != nil || a.Hash() != b.Hash() {
				t.Fatalf("round %d: block %d of the stopped replica is not the quorum's (%v %v)", round, idx, errA, errB)
			}
		}
	}
}
