package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/node"
	"zugchain/internal/transport"
)

// numReplicas is n = 3f+1 for f = 1.
const numReplicas = 4

// quorumSize is 2f+1.
const quorumSize = 3

// The train configuration: paper timeouts (§V) of 250 ms soft and hard, and
// the daemon's default batching.
const (
	paperTimeout = 250 * time.Millisecond
	maxBatch     = 16
	batchDelay   = 2 * time.Millisecond
)

// clusterConfig is what varies between two clusters of one run.
type clusterConfig struct {
	dataRoot string // where the replicas' DataDirs live
	traced   bool   // lifecycle tracing on, wrappers timing
	seed     int64
}

// cluster is four replicas built from the public node API over TCP
// loopback, each with a disk DataDir (block store and WAL), a tapped
// transport and a timer-counting clock.
type cluster struct {
	cfg   clusterConfig
	ids   []crypto.NodeID
	kps   map[crypto.NodeID]*crypto.KeyPair
	reg   *crypto.Registry
	tcps  []*transport.TCP
	nodes []*node.Node
	srcs  []chainSource // nodes[i].Store(), for the quorum detector

	tap    *netTap
	timers atomic.Uint64
}

func newCluster(cfg clusterConfig) (*cluster, error) {
	c := &cluster{
		cfg: cfg,
		kps: make(map[crypto.NodeID]*crypto.KeyPair),
		tap: &netTap{timed: cfg.traced},
	}
	var pairs []*crypto.KeyPair
	keyRand := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < numReplicas; i++ {
		id := crypto.NodeID(i)
		kp, err := crypto.GenerateKeyPair(id, keyRand)
		if err != nil {
			return nil, err
		}
		c.ids = append(c.ids, id)
		c.kps[id] = kp
		pairs = append(pairs, kp)
	}
	c.reg = crypto.NewRegistry(pairs...)
	addrs := make(map[crypto.NodeID]string)
	for _, id := range c.ids {
		tr, err := transport.NewTCP(id, "127.0.0.1:0", nil)
		if err != nil {
			c.close()
			return nil, err
		}
		c.tcps = append(c.tcps, tr)
		addrs[id] = tr.Addr()
	}
	for _, tr := range c.tcps {
		tr.SetPeers(addrs)
	}
	for i := range c.ids {
		if err := c.start(i); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// start builds and starts replica i.
func (c *cluster) start(i int) error {
	id := c.ids[i]
	tr := &tapTransport{under: c.tcps[i], tap: c.tap, peers: numReplicas - 1}
	n, err := node.New(node.Config{
		ID:            id,
		Replicas:      c.ids,
		DataDir:       filepath.Join(c.cfg.dataRoot, fmt.Sprintf("replica-%d", i)),
		SoftTimeout:   paperTimeout,
		HardTimeout:   paperTimeout,
		MaxBatch:      maxBatch,
		MaxBatchDelay: batchDelay,
		DisableTrace:  !c.cfg.traced,
	}, c.kps[id], c.reg, tr, countingClock{Clock: clock.Real{}, timers: &c.timers})
	if err != nil {
		return err
	}
	c.nodes = append(c.nodes, n)
	c.srcs = append(c.srcs, n.Store())
	n.Start()
	return nil
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Stop()
	}
	c.nodes, c.srcs = nil, nil
	for _, tr := range c.tcps {
		_ = tr.Close()
	}
	_ = os.RemoveAll(c.cfg.dataRoot)
}

// totals sums the program's own counters over the replicas. Gauges (queue
// peaks, maxima) are maxed.
func (c *cluster) totals() map[string]float64 {
	out := make(map[string]float64)
	for _, n := range c.nodes {
		for k, v := range n.Obs().Registry.Values() {
			if strings.HasSuffix(k, "_total") {
				out[k] += v
			} else if v > out[k] {
				out[k] = v
			}
		}
	}
	return out
}

// checkChains is the end-of-run safety gate: every replica's chain verifies,
// all chains agree up to the lowest head, and no replica's chain logs a
// record twice or a record whose bytes were not submitted.
func (c *cluster) checkChains(ident func([]byte) (uint64, bool), expected func(uint64) []byte) error {
	lowest := ^uint64(0)
	for i, n := range c.nodes {
		if err := n.Store().VerifyChain(); err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		lowest = min(lowest, n.Store().HeadIndex())
	}
	for idx := uint64(1); idx <= lowest; idx++ {
		b0, err := c.nodes[0].Store().Get(idx)
		if err != nil {
			return fmt.Errorf("block %d: %w", idx, err)
		}
		for _, n := range c.nodes[1:] {
			b, err := n.Store().Get(idx)
			if err != nil {
				return fmt.Errorf("block %d: %w", idx, err)
			}
			if b.Hash() != b0.Hash() {
				return fmt.Errorf("chains differ at block %d", idx)
			}
		}
	}
	for i, n := range c.nodes {
		seen := make(map[uint64]bool)
		for idx := uint64(1); idx <= n.Store().HeadIndex(); idx++ {
			b, err := n.Store().Get(idx)
			if err != nil {
				return fmt.Errorf("replica %d block %d: %w", i, idx, err)
			}
			for _, e := range b.Entries {
				id, ok := ident(e.Payload)
				if !ok {
					return fmt.Errorf("replica %d block %d: unknown record", i, idx)
				}
				if seen[id] {
					return fmt.Errorf("replica %d logged record %d twice", i, id)
				}
				seen[id] = true
				if want := expected(id); want == nil || string(want) != string(e.Payload) {
					return fmt.Errorf("replica %d block %d: record %d differs from what was submitted", i, idx, id)
				}
			}
		}
	}
	return nil
}
