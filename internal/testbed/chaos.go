package testbed

import (
	"fmt"
	"path/filepath"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/mvb"
	"zugchain/internal/node"
	"zugchain/internal/obsv"
	"zugchain/internal/pbft"
	"zugchain/internal/transport"
)

// Crash schedules one replica kill and (optionally) its restart from the
// same data dir.
type Crash struct {
	// Node is the replica index to kill.
	Node int
	// KillAtCycle is the bus cycle at which the process dies.
	KillAtCycle int
	// RestartAtCycle, when > KillAtCycle, restarts the replica from its
	// data dir at that cycle; zero leaves it dead.
	RestartAtCycle int
}

// Partition schedules a symmetric network partition between two replicas.
type Partition struct {
	A, B int
	// AtCycle cuts the link; HealAtCycle (when > AtCycle) restores it.
	AtCycle     int
	HealAtCycle int
}

// ChaosScenario drives a ZugChain cluster through crash-restarts and
// network partitions while the network's links inject seeded drop/delay/
// duplicate faults — the §III-D fault model plus fail-recovery.
type ChaosScenario struct {
	// Scenario sets the bus, the replica set and their timeouts, TimeScale
	// and Seed; its System, bus faults and Fig 8–9 fields are not used.
	Scenario
	// DataRoot is the directory holding one data dir per replica; crashed
	// replicas restart from theirs. Required.
	DataRoot string
	// NetFaults is the link every pair of replicas talks over; its drop,
	// delay and duplicate rates are the injected network faults.
	NetFaults transport.LinkConfig
	// Crashes and Partitions are the fault schedule.
	Crashes    []Crash
	Partitions []Partition
	// StateRetryInterval overrides the node's state-transfer retry base
	// (scaled); zero keeps the node default.
	StateRetryInterval time.Duration
}

// RestartReport captures what one crash-restarted replica recovered.
type RestartReport struct {
	Node int
	// PreCrashView is the replica's PBFT view just before it was killed.
	PreCrashView uint64
	// Recovery is what the restarted node reconstructed from disk.
	Recovery node.RecoveryInfo
}

// ChaosResult summarizes a chaos run. The harness extracts everything the
// assertions need before tearing the cluster down.
type ChaosResult struct {
	// MinHeight / MaxHeight are the final chain heights across replicas
	// alive at the end.
	MinHeight, MaxHeight uint64
	// Diverged is empty when all alive replicas hold identical blocks over
	// [1, MinHeight]; otherwise it describes the first divergence.
	Diverged string
	// DuplicateLogs counts payload digests logged more than once within
	// any single chain — the double-LOG a recovery bug would produce.
	DuplicateLogs int
	// Restarts reports each crash-restart, in schedule order.
	Restarts []RestartReport
	// FaultStats counts the network faults the links injected over the run.
	FaultStats transport.FaultStats
	// Journals holds each replica's consensus event journal at teardown
	// (nil for replicas dead at the end) — what /eventz would have served.
	Journals [][]obsv.Event
}

// CountEvents tallies journal events of one kind across all replicas.
func (r *ChaosResult) CountEvents(kind obsv.EventKind) int {
	n := 0
	for _, events := range r.Journals {
		for _, e := range events {
			if e.Kind == kind {
				n++
			}
		}
	}
	return n
}

// chaosCluster is the mutable run state of RunChaos.
type chaosCluster struct {
	*cluster
	s   ChaosScenario
	net *transport.Network
}

func (c *chaosCluster) nodeConfig(i int) node.Config {
	cfg := c.s.replicaConfig(c.ids, i)
	cfg.DataDir = filepath.Join(c.s.DataRoot, fmt.Sprintf("node-%d", i))
	cfg.StateRetryInterval = c.s.scaled(c.s.StateRetryInterval)
	return cfg
}

// startNode builds (or rebuilds) replica i on a fresh network attachment.
// Partitions it is on one side of still hold: the network keeps link state
// across Remove.
func (c *chaosCluster) startNode(i int) (*node.Node, error) {
	id := c.ids[i]
	n, err := node.New(c.nodeConfig(i), c.kps[id], c.reg, c.net.Endpoint(id), clock.Real{})
	if err != nil {
		return nil, err
	}
	c.run(i, n, c.bus.NewReader(mvb.FaultConfig{}, c.s.Seed+int64(i)))
	return n, nil
}

// killNode stops replica i and releases its network attachment; only its
// data dir survives.
func (c *chaosCluster) killNode(i int) {
	c.stop(i)
	c.net.Remove(c.ids[i])
}

// RunChaos executes a chaos scenario: the cluster orders bus traffic while
// the schedule kills, restarts, partitions, and heals replicas, then waits
// for the survivors to converge and reports what they agree on.
func RunChaos(s ChaosScenario) (*ChaosResult, error) {
	s.applyDefaults()
	if s.DataRoot == "" {
		return nil, fmt.Errorf("testbed: chaos scenario needs a DataRoot")
	}

	c := &chaosCluster{
		cluster: newCluster(s.Nodes, buildBus(s.Scenario)),
		s:       s,
		net: transport.NewNetwork(transport.WithSeed(s.Seed),
			transport.WithDefaultLink(s.NetFaults)),
	}
	defer c.net.Close()
	defer c.stopAll()
	for i := range c.ids {
		if _, err := c.startNode(i); err != nil {
			return nil, err
		}
	}

	res := &ChaosResult{}
	preViews := make(map[int]uint64)

	ticker := time.NewTicker(s.scaled(s.BusCycle))
	defer ticker.Stop()
	for cycle := 0; cycle < s.Cycles; cycle++ {
		<-ticker.C
		c.bus.Tick()
		for _, p := range s.Partitions {
			if p.AtCycle == cycle {
				c.net.Partition(c.ids[p.A], c.ids[p.B])
			}
			if p.HealAtCycle == cycle && p.HealAtCycle > p.AtCycle {
				c.net.Heal(c.ids[p.A], c.ids[p.B])
			}
		}
		for _, cr := range s.Crashes {
			if cr.KillAtCycle == cycle && c.nodes[cr.Node] != nil {
				var view uint64
				c.nodes[cr.Node].Runner().Inspect(func(e *pbft.Engine) {
					view, _, _ = e.ViewState()
				})
				preViews[cr.Node] = view
				c.killNode(cr.Node)
			}
			if cr.RestartAtCycle == cycle && cr.RestartAtCycle > cr.KillAtCycle && c.nodes[cr.Node] == nil {
				n, err := c.startNode(cr.Node)
				if err != nil {
					return nil, fmt.Errorf("testbed: restart node %d: %w", cr.Node, err)
				}
				res.Restarts = append(res.Restarts, RestartReport{
					Node:         cr.Node,
					PreCrashView: preViews[cr.Node],
					Recovery:     n.Recovery(),
				})
			}
		}
	}

	// Convergence: wait for every alive replica to reach the tallest chain
	// (restarted ones catch up via state transfer).
	deadline := time.Now().Add(10*s.scaled(s.ViewTimeout) + 5*time.Second)
	for ; time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if min, max := c.heights(); min == max && max > 0 {
			break
		}
	}

	res.MinHeight, res.MaxHeight = c.heights()
	res.Diverged = c.compareChains(res.MinHeight)
	res.DuplicateLogs = c.countDuplicateLogs()
	res.FaultStats = c.net.FaultStats()
	res.Journals = make([][]obsv.Event, s.Nodes)
	for i, n := range c.nodes {
		if n != nil {
			res.Journals[i] = n.Obs().Journal.Events()
		}
	}
	return res, nil
}

func (c *chaosCluster) heights() (min, max uint64) {
	first := true
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		h := n.Store().HeadIndex()
		if first || h < min {
			min = h
		}
		if first || h > max {
			max = h
		}
		first = false
	}
	return min, max
}

// compareChains returns "" when all alive replicas hold identical blocks
// over [1, height], else a description of the first divergence.
func (c *chaosCluster) compareChains(height uint64) string {
	var ref *node.Node
	var refIdx int
	for i, n := range c.nodes {
		if n != nil {
			ref, refIdx = n, i
			break
		}
	}
	if ref == nil {
		return "no replicas alive"
	}
	for i, n := range c.nodes {
		if n == nil || n == ref {
			continue
		}
		for idx := uint64(1); idx <= height; idx++ {
			a, errA := ref.Store().Get(idx)
			b, errB := n.Store().Get(idx)
			if errA != nil || errB != nil {
				return fmt.Sprintf("block %d: node %d: %v, node %d: %v", idx, refIdx, errA, i, errB)
			}
			if a.Hash() != b.Hash() {
				return fmt.Sprintf("block %d differs between node %d and node %d", idx, refIdx, i)
			}
		}
	}
	return ""
}

// countDuplicateLogs counts payload digests logged more than once within a
// single chain, across all alive replicas.
func (c *chaosCluster) countDuplicateLogs() int {
	dups := 0
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		seen := make(map[crypto.Digest]bool)
		store := n.Store()
		for idx := store.Base() + 1; idx <= store.HeadIndex(); idx++ {
			b, err := store.Get(idx)
			if err != nil {
				continue
			}
			for _, e := range b.Entries {
				d := crypto.Hash(e.Payload)
				if seen[d] {
					dups++
				}
				seen[d] = true
			}
		}
	}
	return dups
}
