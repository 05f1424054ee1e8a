// Package testbed builds the evaluation environment of §V: four replicas
// (the paper's M-COMs) on a simulated Ethernet, fed by a simulated MVB with
// an ATP workload generator, running either ZugChain or the PBFT-with-
// clients baseline. Scenarios sweep bus cycle and payload size, inject
// Byzantine behaviours, and collect the latency / network / CPU-proxy /
// memory measurements behind Figs 6–9 and Table II.
//
// Scenarios run in real time. Because commodity CPUs order requests in
// microseconds where the paper's 800 MHz ARM boards take milliseconds,
// scenarios support a TimeScale that divides the bus cycle and all timeouts
// equally — ratios between systems and the shape across sweeps are
// preserved while wall-clock cost shrinks.
package testbed

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"zugchain/internal/baseline"
	"zugchain/internal/blockchain"
	"zugchain/internal/clock"
	"zugchain/internal/core"
	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
	"zugchain/internal/mvb"
	"zugchain/internal/node"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// System selects which recorder architecture a scenario runs.
type System int

// Available systems.
const (
	ZugChain System = iota + 1
	Baseline
)

// String names the system.
func (s System) String() string {
	if s == Baseline {
		return "baseline"
	}
	return "zugchain"
}

// Scenario describes one evaluation run.
type Scenario struct {
	// System is ZugChain or Baseline.
	System System
	// Nodes is the replica count (the testbed has 4 M-COMs).
	Nodes int
	// BusCycle is the MVB cycle time (32–256 ms in Fig 6).
	BusCycle time.Duration
	// PayloadSize pads each cycle's record (32 B – 8 kB in Fig 6).
	PayloadSize int
	// Cycles is the number of bus cycles to run.
	Cycles int
	// CheckpointInterval is agreement slots per checkpoint (10 in §V).
	CheckpointInterval uint64
	// TimeScale divides BusCycle and all timeouts (1 = real time).
	TimeScale int
	// SoftTimeout and HardTimeout for ZugChain (paper: 250 ms each);
	// ClientTimeout for the baseline (paper: 500 ms). Pre-scaling values.
	SoftTimeout   time.Duration
	HardTimeout   time.Duration
	ClientTimeout time.Duration
	ViewTimeout   time.Duration
	// BusFaults configures per-node bus fault injection.
	BusFaults []mvb.FaultConfig
	// FabricateRate makes the node FabricateNode inject a fabricated
	// request in this fraction of bus cycles (Fig 9a).
	FabricateRate float64
	FabricateNode int
	// PrimaryDelay delays the primary's preprepares (Fig 9b).
	PrimaryDelay time.Duration
	// KillPrimaryAtCycle isolates the primary at the given cycle and has
	// the backups detect the fault (Fig 8). Zero disables.
	KillPrimaryAtCycle int
	// SuspectOnFirstTimeout configures Fig 8's one-shot baseline timeout.
	SuspectOnFirstTimeout bool
	// Seed drives workload and fault randomness.
	Seed int64
	// LinkLatency is the per-hop Ethernet latency.
	LinkLatency time.Duration
}

func (s *Scenario) applyDefaults() {
	if s.System == 0 {
		s.System = ZugChain
	}
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.BusCycle == 0 {
		s.BusCycle = 64 * time.Millisecond
	}
	if s.Cycles == 0 {
		s.Cycles = 100
	}
	if s.CheckpointInterval == 0 {
		s.CheckpointInterval = 10
	}
	if s.TimeScale <= 0 {
		s.TimeScale = 1
	}
	if s.SoftTimeout == 0 {
		s.SoftTimeout = 250 * time.Millisecond
	}
	if s.HardTimeout == 0 {
		s.HardTimeout = 250 * time.Millisecond
	}
	if s.ClientTimeout == 0 {
		s.ClientTimeout = 500 * time.Millisecond
	}
	if s.ViewTimeout == 0 {
		s.ViewTimeout = 500 * time.Millisecond
	}
	if s.FabricateNode == 0 {
		s.FabricateNode = 3
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

func (s *Scenario) scaled(d time.Duration) time.Duration {
	return d / time.Duration(s.TimeScale)
}

// buildBus assembles the MVB with the ATP generator for the scenario.
func buildBus(s Scenario) *mvb.Bus {
	genCfg := signal.DefaultGeneratorConfig()
	genCfg.Seed = s.Seed
	genCfg.PayloadSize = s.PayloadSize
	bus := mvb.NewBus(mvb.Config{CycleTime: s.scaled(s.BusCycle)})
	bus.Attach(mvb.NewSignalDevice(signal.NewGenerator(genCfg)))
	return bus
}

func (s *Scenario) faultsFor(i int) mvb.FaultConfig {
	if i < len(s.BusFaults) {
		return s.BusFaults[i]
	}
	return mvb.FaultConfig{}
}

// Result aggregates a scenario's measurements.
type Result struct {
	Scenario Scenario
	// Duration is the wall-clock run time.
	Duration time.Duration
	// Latency aggregates receive-to-decide latency across all nodes
	// (scaled back up by TimeScale so numbers are comparable).
	Latency metrics.LatencyStats
	// Timeline holds per-decide latency samples relative to run start
	// (for Fig 8). Times are unscaled wall-clock.
	Timeline []TimelinePoint
	// FaultAt is when the primary was killed (Fig 8), relative to start.
	FaultAt time.Duration
	// NetBytesPerNodePerSec is the mean transport traffic per node.
	NetBytesPerNodePerSec float64
	// MsgsPerNode is the mean transport message count per node.
	MsgsPerNode float64
	// CPUWorkPerNode is the CPU-load proxy per node (see metrics).
	CPUWorkPerNode float64
	// AllocPerNode is allocated bytes per node during the run (memory
	// churn proxy).
	AllocPerNode uint64
	// HeapAlloc is the retained heap after the run.
	HeapAlloc uint64
	// Ordered counts the records on the reporting node's chain, logged
	// there or installed by a state transfer; Duplicates counts filtered
	// duplicates over all nodes.
	Ordered    uint64
	Duplicates uint64
	// Blocks is node 0's final chain height.
	Blocks uint64
}

// TimelinePoint is one latency observation on the Fig 8 timeline.
type TimelinePoint struct {
	Since   time.Duration // decide time relative to run start
	Latency time.Duration // scaled back to paper-equivalent time
}

// Run executes one scenario to completion. Both systems run the same
// replica, schedule and measurements; the system picks the front end, the
// drain rule, and the node whose counters report Ordered and Blocks.
func Run(s Scenario) (*Result, error) { return run(s, nil) }

// run is Run, handing the reporting node to inspect, when set, before the
// replicas stop.
func run(s Scenario, inspect func(report *node.Node)) (*Result, error) {
	s.applyDefaults()
	net := transport.NewNetwork(
		transport.WithSeed(s.Seed),
		transport.WithDefaultLink(transport.LinkConfig{Latency: s.LinkLatency}),
	)
	defer net.Close()

	c := newCluster(s.Nodes, buildBus(s))
	defer c.stopAll()
	for i, id := range c.ids {
		n, err := s.newNode(c.ids, i, c.kps[id], c.reg, net.Endpoint(id))
		if err != nil {
			return nil, err
		}
		c.run(i, n, c.bus.NewReader(s.faultsFor(i), s.Seed+int64(i)))
	}
	nodes := c.nodes

	// Fig 9b: the primary delays its preprepares.
	if s.PrimaryDelay > 0 {
		delay := s.scaled(s.PrimaryDelay)
		net.SetInterceptor(0, func(to crypto.NodeID, data []byte) (time.Duration, bool) {
			if pbft.IsProposal(data) {
				return delay, false
			}
			return 0, false
		})
	}

	// Fig 9a: a faulty backup fabricates requests.
	fabricator := newFabricator(s, c.kps, net)

	runtime.GC()
	memBefore := metrics.SampleMemory()
	start := time.Now()
	var faultAt time.Duration

	ticker := time.NewTicker(s.scaled(s.BusCycle))
	defer ticker.Stop()
	for cycle := 0; cycle < s.Cycles; cycle++ {
		<-ticker.C
		c.bus.Tick()
		if fabricator != nil {
			fabricator.maybeInject(cycle)
		}
		if s.KillPrimaryAtCycle > 0 && cycle == s.KillPrimaryAtCycle {
			faultAt = time.Since(start)
			net.Isolate(0)
			// The backups discover the fault as their timeout machinery
			// fires; no explicit Suspect needed.
		}
	}
	s.drain(nodes)
	duration := time.Since(start)
	memAfter := metrics.SampleMemory()

	// The baseline reports a backup's counters: node 0 is the primary Fig 8
	// kills.
	report := nodes[0]
	if s.System == Baseline {
		report = nodes[1]
	}
	res := &Result{
		Scenario: s,
		Duration: duration,
		FaultAt:  faultAt,
		Blocks:   report.Store().HeadIndex(),
	}

	// Aggregate latency across surviving nodes, scaling back to
	// paper-equivalent time.
	agg := &metrics.Latency{}
	for i, n := range nodes {
		if s.KillPrimaryAtCycle > 0 && i == 0 {
			continue
		}
		for _, ts := range n.FrontEnd().Latency().TimedSamples() {
			agg.Record(ts.D * time.Duration(s.TimeScale))
			res.Timeline = append(res.Timeline, TimelinePoint{
				Since:   ts.At.Sub(start),
				Latency: ts.D * time.Duration(s.TimeScale),
			})
		}
	}
	res.Latency = agg.Stats()

	var bytesTotal, msgsTotal uint64
	var cpuTotal float64
	for _, id := range c.ids {
		nc := net.Endpoint(id).Counters()
		bytesTotal += nc.BytesSent.Load()
		msgsTotal += nc.MsgsSent.Load() + nc.MsgsReceived.Load()
		cpuTotal += cpuWork(nc, nodes[id].FrontEnd().Counters().Signatures.Load())
	}
	seconds := duration.Seconds()
	res.NetBytesPerNodePerSec = float64(bytesTotal) / float64(s.Nodes) / seconds
	res.MsgsPerNode = float64(msgsTotal) / float64(s.Nodes)
	res.CPUWorkPerNode = cpuTotal / float64(s.Nodes)
	res.AllocPerNode = (memAfter.TotalAlloc - memBefore.TotalAlloc) / uint64(s.Nodes)
	res.HeapAlloc = memAfter.HeapAlloc

	res.Ordered = chainRecords(report.Store())
	for _, n := range nodes {
		res.Duplicates += n.FrontEnd().Counters().Duplicates.Load()
	}
	if inspect != nil {
		inspect(report)
	}
	return res, nil
}

// chainRecords counts the records on st's chain. The front end's own count
// misses the records a state transfer installs.
func chainRecords(st *blockchain.Store) uint64 {
	var n uint64
	for idx := uint64(1); idx <= st.HeadIndex(); idx++ {
		if b, err := st.Get(idx); err == nil {
			n += uint64(len(b.Entries))
		}
	}
	return n
}

// replicaConfig is replica i's node configuration, timeouts scaled.
func (s *Scenario) replicaConfig(ids []crypto.NodeID, i int) node.Config {
	return node.Config{
		ID:                 ids[i],
		Replicas:           ids,
		CheckpointInterval: s.CheckpointInterval,
		SoftTimeout:        s.scaled(s.SoftTimeout),
		HardTimeout:        s.scaled(s.HardTimeout),
		ViewTimeout:        s.scaled(s.ViewTimeout),
	}
}

// newNode builds replica i of the scenario's system.
func (s *Scenario) newNode(ids []crypto.NodeID, i int, kp *crypto.KeyPair, reg *crypto.Registry, tr transport.Transport) (*node.Node, error) {
	cfg := s.replicaConfig(ids, i)
	if s.System == Baseline {
		return baseline.New(cfg, baseline.Config{
			ClientTimeout:         s.scaled(s.ClientTimeout),
			SuspectOnFirstTimeout: s.SuspectOnFirstTimeout,
		}, kp, reg, tr, clock.Real{})
	}
	return node.New(cfg, kp, reg, tr, clock.Real{})
}

// drain lets in-flight ordering finish after the last bus cycle. ZugChain
// waits for every live replica's request queue to empty, bounded by the
// timeouts; the baseline's clients hold no shared queue, so it waits two
// client timeouts.
func (s *Scenario) drain(nodes []*node.Node) {
	if s.System == Baseline {
		time.Sleep(2 * s.scaled(s.ClientTimeout))
		return
	}
	deadline := time.Now().Add(2*s.scaled(s.SoftTimeout) + 2*s.scaled(s.HardTimeout) + 2*time.Second)
	for ; time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		open := 0
		for i, n := range nodes {
			if s.KillPrimaryAtCycle == 0 || i > 0 { // the killed primary never settles
				open += n.FrontEnd().OpenRequests()
			}
		}
		if open == 0 {
			return
		}
	}
}

// cpuWork is one replica's CPU-load proxy (Fig 7): every protocol message it
// sent counts as a signing and every one it received as a verification,
// which approximates the Ed25519 load, plus the signatures its request layer
// generated.
func cpuWork(net *metrics.Counters, requestSigs uint64) float64 {
	sent, recv := net.MsgsSent.Load(), net.MsgsReceived.Load()
	return metrics.CPUWorkUnits(sent+requestSigs, recv, sent+recv, net.BytesSent.Load()+net.BytesReceived.Load())
}

// cluster is the replica set a testbed run drives: the keyring, the shared
// bus, and per replica its node.
type cluster struct {
	ids   []crypto.NodeID
	kps   map[crypto.NodeID]*crypto.KeyPair
	reg   *crypto.Registry
	bus   *mvb.Bus
	nodes []*node.Node
}

// newCluster creates n replica key pairs, the shared registry, and empty
// replica slots.
func newCluster(n int, bus *mvb.Bus) *cluster {
	c := &cluster{
		ids:   make([]crypto.NodeID, n),
		kps:   make(map[crypto.NodeID]*crypto.KeyPair, n),
		bus:   bus,
		nodes: make([]*node.Node, n),
	}
	pairs := make([]*crypto.KeyPair, 0, n)
	for i := range c.ids {
		id := crypto.NodeID(i)
		c.ids[i] = id
		c.kps[id] = crypto.MustGenerateKeyPair(id)
		pairs = append(pairs, c.kps[id])
	}
	c.reg = crypto.NewRegistry(pairs...)
	return c
}

// run starts n as replica i, reading the bus through reader until it stops.
func (c *cluster) run(i int, n *node.Node, reader *mvb.Reader) {
	c.nodes[i] = n
	n.Start()
	n.RunBus(context.Background(), reader)
}

// stop stops replica i.
func (c *cluster) stop(i int) {
	c.nodes[i].Stop()
	c.nodes[i] = nil
}

// stopAll stops every live replica.
func (c *cluster) stopAll() {
	for i, n := range c.nodes {
		if n != nil {
			c.stop(i)
		}
	}
}

// fabricator injects fabricated requests from a faulty backup (Fig 9a): the
// node broadcasts well-signed requests whose payload no bus ever carried.
type fabricator struct {
	scenario Scenario
	kp       *crypto.KeyPair
	ep       *transport.Endpoint
	rng      *rand.Rand
	count    int
}

func newFabricator(s Scenario, kps map[crypto.NodeID]*crypto.KeyPair, net *transport.Network) *fabricator {
	if s.FabricateRate <= 0 {
		return nil
	}
	id := crypto.NodeID(s.FabricateNode)
	return &fabricator{
		scenario: s,
		kp:       kps[id],
		ep:       net.Endpoint(id),
		rng:      rand.New(rand.NewSource(s.Seed + 77)),
	}
}

func (f *fabricator) maybeInject(cycle int) {
	if f.rng.Float64() >= f.scenario.FabricateRate {
		return
	}
	f.count++
	req := pbft.Request{
		Payload: []byte(fmt.Sprintf("fabricated-%d-%d", cycle, f.count)),
	}
	pbft.SignRequest(&req, f.kp)
	_ = f.ep.Broadcast(wire.Marshal(&core.ZCRequest{Req: req}))
}
