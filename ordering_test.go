package zugchain_test

import (
	"fmt"
	"testing"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/node"
	"zugchain/internal/transport"
)

// orderingLoad is a four-node cluster (full PBFT, real Ed25519) ordering
// 200-byte records fed through node 0, at most window of them in flight at
// once. BenchmarkOrderingThroughput* and the tracer overhead guard share it.
type orderingLoad struct {
	nodes  []*node.Node
	window uint64
	fed    uint64
}

// newOrderingLoad starts the cluster on trs. Every node batches up to 64
// records; mutate adjusts each node's config (nil = stock).
func newOrderingLoad(tb testing.TB, trs map[crypto.NodeID]transport.Transport, window uint64, mutate func(*node.Config)) *orderingLoad {
	tb.Helper()
	ids := []crypto.NodeID{0, 1, 2, 3}
	kps := make(map[crypto.NodeID]*crypto.KeyPair)
	var pairs []*crypto.KeyPair
	for _, id := range ids {
		kps[id] = crypto.MustGenerateKeyPair(id)
		pairs = append(pairs, kps[id])
	}
	reg := crypto.NewRegistry(pairs...)

	l := &orderingLoad{window: window}
	for _, id := range ids {
		cfg := node.Config{
			ID:       id,
			Replicas: ids,
			// Timeouts far above the windowed per-record latency (so the
			// steady state has no timeout churn) but finite, so Algorithm
			// 1's recovery machinery still clears any hiccup on the
			// flooded in-proc links instead of wedging the run.
			SoftTimeout:   2 * time.Second,
			HardTimeout:   2 * time.Second,
			ViewTimeout:   2 * time.Second,
			MaxBatch:      64,
			MaxBatchDelay: time.Millisecond,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		n, err := node.New(cfg, kps[id], reg, trs[id], clock.Real{})
		if err != nil {
			l.stop()
			tb.Fatal(err)
		}
		l.nodes = append(l.nodes, n)
		n.Start()
	}
	return l
}

// inprocTransports attaches the four nodes to one in-process network.
func inprocTransports() (*transport.Network, map[crypto.NodeID]transport.Transport) {
	net := transport.NewNetwork()
	trs := make(map[crypto.NodeID]transport.Transport)
	for _, id := range []crypto.NodeID{0, 1, 2, 3} {
		trs[id] = net.Endpoint(id)
	}
	return net, trs
}

func (l *orderingLoad) stop() {
	for _, n := range l.nodes {
		n.Stop()
	}
}

// ordered is the most records any node has ordered. Decides are totally
// ordered and the duplicate filter is deterministic, so one correct node
// reaching a count proves a 2f+1 quorum committed every record up to it.
// Replicas that lost messages to the flooded in-proc links catch up via
// checkpoint state transfer, which bypasses the layer's request counter —
// gating on every node would stall on that path.
func (l *orderingLoad) ordered() uint64 {
	best := uint64(0)
	for _, n := range l.nodes {
		if got := n.FrontEnd().Counters().Requests.Load(); got > best {
			best = got
		}
	}
	return best
}

// orderUpTo feeds records until some node has ordered total of them, or
// fails after two minutes.
func (l *orderingLoad) orderUpTo(total uint64) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		best := l.ordered()
		if best >= total {
			return nil
		}
		for l.fed < total && l.fed-best < l.window {
			payload := make([]byte, 200)
			copy(payload, fmt.Sprintf("load-%d", l.fed))
			l.nodes[0].FrontEnd().OnBusRecord(0, payload)
			l.fed++
		}
		if time.Now().After(deadline) {
			counts := make([]uint64, len(l.nodes))
			dups := make([]uint64, len(l.nodes))
			for j, n := range l.nodes {
				c := n.FrontEnd().Counters()
				counts[j], dups[j] = c.Requests.Load(), c.Duplicates.Load()
			}
			return fmt.Errorf("cluster ordered %v/%d records (duplicates %v) before deadline", counts, total, dups)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
