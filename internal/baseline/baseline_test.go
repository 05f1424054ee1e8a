package baseline

import (
	"fmt"
	"testing"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/mvb"
	"zugchain/internal/node"
	"zugchain/internal/obsv"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
)

type cluster struct {
	t     *testing.T
	net   *transport.Network
	nodes []*node.Node
	kps   map[crypto.NodeID]*crypto.KeyPair
}

func newCluster(t *testing.T) *cluster {
	t.Helper()
	c := &cluster{
		t:   t,
		net: transport.NewNetwork(),
		kps: make(map[crypto.NodeID]*crypto.KeyPair),
	}
	ids := []crypto.NodeID{0, 1, 2, 3}
	var pairs []*crypto.KeyPair
	for _, id := range ids {
		kp := crypto.MustGenerateKeyPair(id)
		c.kps[id] = kp
		pairs = append(pairs, kp)
	}
	reg := crypto.NewRegistry(pairs...)
	for _, id := range ids {
		n, err := New(node.Config{ID: id, Replicas: ids}, Config{ClientTimeout: 2 * time.Second},
			c.kps[id], reg, c.net.Endpoint(id), clock.Real{})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, n)
		n.Start()
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
		c.net.Close()
	})
	return c
}

func (c *cluster) waitHeight(height uint64, deadline time.Duration) {
	c.t.Helper()
	c.waitNodes(c.nodes, height, deadline)
}

// waitNodes waits until every one of nodes holds height blocks.
func (c *cluster) waitNodes(nodes []*node.Node, height uint64, deadline time.Duration) {
	c.t.Helper()
	end := time.Now().Add(deadline)
	for {
		done := true
		for _, n := range nodes {
			if n.Store().HeadIndex() < height {
				done = false
				break
			}
		}
		if done {
			return
		}
		if time.Now().After(end) {
			for i, n := range c.nodes {
				c.t.Logf("node %d head=%d", i, n.Store().HeadIndex())
			}
			c.t.Fatalf("chains did not reach height %d", height)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// submit hands one payload to n's client as a bus record.
func submit(n *node.Node, payload []byte) { n.FrontEnd().OnBusRecord(0, payload) }

func TestBaselineOrdersEveryClientCopy(t *testing.T) {
	c := newCluster(t)
	// All four clients submit the same payload — as they do when reading
	// the same bus cycle. The baseline orders all four copies.
	payload := []byte("identical-bus-cycle")
	for _, n := range c.nodes {
		submit(n, payload)
	}

	// 4 copies ordered, each sealed into its slot's block.
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range c.nodes {
		for n.FrontEnd().Counters().Requests.Load() < 4 {
			if time.Now().After(deadline) {
				t.Fatalf("node ordered %d of 4 copies", n.FrontEnd().Counters().Requests.Load())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestBaselineDuplicationFactorIsN(t *testing.T) {
	c := newCluster(t)
	// 10 bus cycles read by 4 clients each: 40 ordered requests, each in
	// its own slot and so its own block.
	for i := 0; i < 10; i++ {
		payload := []byte(fmt.Sprintf("cycle-%02d", i))
		for _, n := range c.nodes {
			submit(n, payload)
		}
	}
	c.waitHeight(40, 30*time.Second)

	// Count how many times each cycle appears in the chain.
	blocks, err := c.nodes[0].Store().Range(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	total := 0
	for _, b := range blocks {
		for _, e := range b.Entries {
			counts[string(e.Payload)]++
			total++
		}
	}
	if total != 40 {
		t.Errorf("ordered %d entries, want 40 (4x duplication)", total)
	}
	for payload, n := range counts {
		if n != 4 {
			t.Errorf("%q ordered %d times, want 4", payload, n)
		}
	}
}

func TestBaselineChainsAgree(t *testing.T) {
	c := newCluster(t)
	for i := 0; i < 5; i++ {
		for _, n := range c.nodes {
			submit(n, []byte(fmt.Sprintf("cycle-%02d", i)))
		}
	}
	c.waitHeight(2, 30*time.Second)
	ref := c.nodes[0].Store()
	for i, n := range c.nodes {
		for idx := uint64(1); idx <= 2; idx++ {
			a, errA := ref.Get(idx)
			b, errB := n.Store().Get(idx)
			if errA != nil || errB != nil {
				t.Fatalf("node %d block %d: %v %v", i, idx, errA, errB)
			}
			if a.Hash() != b.Hash() {
				t.Errorf("node %d block %d diverges", i, idx)
			}
		}
		if err := n.Store().VerifyChain(); err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

func TestBaselineHandleFrame(t *testing.T) {
	c := newCluster(t)
	gen := signal.NewGenerator(signal.DefaultGeneratorConfig())
	bus := mvb.NewBus(mvb.Config{})
	bus.Attach(mvb.NewSignalDevice(gen))
	readers := make([]*mvb.Reader, len(c.nodes))
	for i := range c.nodes {
		readers[i] = bus.NewReader(mvb.FaultConfig{}, int64(i))
	}
	for cycle := 0; cycle < 3; cycle++ {
		bus.Tick()
		for i, n := range c.nodes {
			select {
			case f := <-readers[i].C():
				n.HandleFrame(f)
			case <-time.After(time.Second):
				t.Fatal("no frame")
			}
		}
	}
	// 3 cycles x 4 clients = 12 ordered requests, a block each.
	c.waitHeight(12, 30*time.Second)
}

func TestBaselineClientLatencyRecorded(t *testing.T) {
	c := newCluster(t)
	submit(c.nodes[1], []byte("measure-me"))
	deadline := time.Now().Add(10 * time.Second)
	for c.nodes[1].FrontEnd().Latency().Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("latency never recorded")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stats := c.nodes[1].FrontEnd().Latency().Stats()
	if stats.Mean <= 0 || stats.Mean > 5*time.Second {
		t.Errorf("implausible latency %v", stats.Mean)
	}
}

func TestBaselineViewChangeOnCensoringPrimary(t *testing.T) {
	c := newCluster(t)
	// Isolate the primary: clients' requests are never ordered; after two
	// client timeouts they suspect, triggering a view change.
	c.net.Isolate(0)
	for _, n := range c.nodes[1:] {
		submit(n, []byte("censored"))
	}
	deadline := time.Now().Add(30 * time.Second)
	// Wait until the surviving replicas advance past view 0.
	for _, n := range c.nodes[1:] {
		for {
			var view uint64
			n.Runner().Inspect(func(e *pbft.Engine) { view = e.View() })
			if view >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node stuck in view %d", view)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// The censored request is eventually ordered under the new primary.
	for _, n := range c.nodes[1:] {
		for n.FrontEnd().Counters().Requests.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("censored request never ordered after view change")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// TestBaselineLaggardCatchesUpByStateTransfer cuts one replica off for three
// checkpoint intervals of traffic. By the time the link heals, the others
// have garbage-collected the slots it missed, so only state transfer can
// fill its chain.
func TestBaselineLaggardCatchesUpByStateTransfer(t *testing.T) {
	c := newCluster(t)
	const laggard = 3
	c.net.Isolate(laggard)
	// Three clients, ten cycles: 30 slots, three checkpoint intervals.
	for i := 0; i < 10; i++ {
		for _, n := range c.nodes[:laggard] {
			submit(n, []byte(fmt.Sprintf("cut-%02d", i)))
		}
	}
	c.waitNodes(c.nodes[:laggard], 30, 30*time.Second)
	c.net.Rejoin(laggard)
	// Traffic after the heal brings the checkpoints that tell the laggard
	// how far behind it is.
	for i := 0; i < 10; i++ {
		for _, n := range c.nodes {
			submit(n, []byte(fmt.Sprintf("healed-%02d", i)))
		}
	}
	c.waitHeight(70, 30*time.Second)

	ref, lag := c.nodes[0].Store(), c.nodes[laggard].Store()
	for idx := uint64(1); idx <= 70; idx++ {
		a, errA := ref.Get(idx)
		b, errB := lag.Get(idx)
		if errA != nil || errB != nil {
			t.Fatalf("block %d: %v %v", idx, errA, errB)
		}
		if a.Hash() != b.Hash() {
			t.Fatalf("block %d differs on the laggard", idx)
		}
	}
	transfers := 0
	for _, e := range c.nodes[laggard].Obs().Journal.Events() {
		if e.Kind == obsv.EventStateTransfer {
			transfers++
		}
	}
	if transfers == 0 {
		t.Error("laggard caught up without a state transfer")
	}
}
