package node

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"zugchain/internal/crypto"
	"zugchain/internal/mvb"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
)

// Wire tags of the PrePrepare family: full, by reference, and the fetch a
// backup sends when it cannot rebuild a reference.
const (
	tagPrePrepare      = 0x10
	tagPrePrepareRef   = 0x16
	tagPrePrepareFetch = 0x17
)

// wireTally counts the frames and bytes each node sends, by wire tag.
type wireTally struct {
	frames, bytes [4][256]atomic.Int64
}

func tallyWire(net *transport.Network) *wireTally {
	w := &wireTally{}
	for id := crypto.NodeID(0); id < 4; id++ {
		net.SetInterceptor(id, func(to crypto.NodeID, data []byte) (time.Duration, bool) {
			if len(data) >= 2 {
				tag := binary.LittleEndian.Uint16(data)
				if tag < 256 {
					w.frames[id][tag].Add(1)
					w.bytes[id][tag].Add(int64(len(data)))
				}
			}
			return 0, false
		})
	}
	return w
}

// sum adds a counter over all senders and the given tags.
func (w *wireTally) sum(c *[4][256]atomic.Int64, tags ...int) int64 {
	var total int64
	for id := range c {
		for _, tag := range tags {
			total += c[id][tag].Load()
		}
	}
	return total
}

// assertViewZero fails if any node left view 0.
func assertViewZero(t *testing.T, nodes []*Node) {
	t.Helper()
	for i, n := range nodes {
		var view uint64
		n.Runner().Inspect(func(e *pbft.Engine) { view = e.View() })
		if view != 0 {
			t.Errorf("node %d in view %d, want no view change", i, view)
		}
	}
}

// assertEachCycleOnce fails unless every bus cycle in node 0's chain up to
// height is logged exactly once.
func assertEachCycleOnce(t *testing.T, n *Node, height uint64) {
	t.Helper()
	blocks, err := n.Store().Range(1, height)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int)
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

// feedRecords hands every node the same recordSize-byte bus record once
// per 5 ms, as if all of them read one bus, until every chain has sealed
// through seq. The primary (node 0) reads last, so its proposal cannot
// overtake a backup's read however the goroutines are scheduled.
func (c *cluster) feedRecords(recordSize int, seq uint64, deadline time.Duration) {
	c.t.Helper()
	end := time.Now().Add(deadline)
	for cycle := 0; minSeq(c.nodes) < seq; cycle++ {
		if time.Now().After(end) {
			c.t.Fatalf("chains did not reach seq %d in %v", seq, deadline)
		}
		payload := make([]byte, recordSize)
		binary.LittleEndian.PutUint64(payload, uint64(cycle))
		for i := len(c.nodes) - 1; i >= 0; i-- {
			c.nodes[i].FrontEnd().OnBusRecord(0, payload)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterProposalsByReference: with every node reading the bus, the
// primary's proposals travel as references every backup rebuilds from its
// own read. No backup fetches, and the PrePrepare family costs under 300 B
// per 1 KB record and backup, where a full PrePrepare of one such record
// is ≈1.2 KB.
func TestClusterProposalsByReference(t *testing.T) {
	c := newCluster(t, func(cfg *Config) { cfg.MaxBatch = 16 }, nil)
	w := tallyWire(c.net)
	deadline := 30 * time.Second
	if raceEnabled {
		deadline *= 3
	}
	c.feedRecords(1024, 30, deadline)
	assertViewZero(t, c.nodes)
	c.assertChainsAgree(minHeight(c.nodes))

	if got := w.sum(&w.frames, tagPrePrepareFetch); got != 0 {
		t.Errorf("%d fetches with every node on the bus, want 0", got)
	}
	for i, n := range c.nodes {
		if got := n.FrontEnd().Counters().PayloadMisses.Load(); got != 0 {
			t.Errorf("node %d missed %d payloads", i, got)
		}
	}
	records := c.nodes[0].FrontEnd().Counters().Requests.Load()
	ppBytes := w.sum(&w.bytes, tagPrePrepare, tagPrePrepareRef, tagPrePrepareFetch)
	perRecord := float64(ppBytes) / float64(records*3)
	t.Logf("%d records, %d PrePrepare-family bytes: %.0f B per record and backup", records, ppBytes, perRecord)
	if perRecord >= 300 {
		t.Errorf("PrePrepare family costs %.0f B per record and backup, want < 300", perRecord)
	}
}

// TestClusterDivergentReadsFetch: one backup's reader drops every frame
// (the divergent-reads fault of §III-B). It cannot rebuild any reference,
// so it fetches the full PrePrepare, and the primary then sends it full
// PrePrepares until the next stable checkpoint: every record is ordered on
// all nodes with identical chains and no view change.
func TestClusterDivergentReadsFetch(t *testing.T) {
	faults := []mvb.FaultConfig{{}, {}, {}, {DropRate: 1}}
	c := newCluster(t, func(cfg *Config) { cfg.MaxBatch = 16 }, faults)
	w := tallyWire(c.net)
	c.tickUntilSeq(40, 30*time.Second)
	assertViewZero(t, c.nodes)
	height := minHeight(c.nodes)
	c.assertChainsAgree(height)
	assertEachCycleOnce(t, c.nodes[0], height)

	fetches := w.frames[3][tagPrePrepareFetch].Load()
	if fetches == 0 {
		t.Fatal("the backup that reads nothing never fetched")
	}
	if got := c.nodes[3].FrontEnd().Counters().PayloadMisses.Load(); int64(got) != fetches {
		t.Errorf("node 3 counted %d payload misses for %d fetches", got, fetches)
	}
	// About one fetch per checkpoint interval, not one per record: the
	// primary answers with a full PrePrepare and keeps sending full ones.
	records := c.nodes[0].FrontEnd().Counters().Requests.Load()
	t.Logf("node 3 fetched %d times for %d records in %d blocks", fetches, records, c.nodes[3].Store().HeadIndex())
	if fetches > int64(records/2) {
		t.Errorf("%d fetches for %d records, want about one per checkpoint interval", fetches, records)
	}
}

// TestRestartedBackupCatchesUpByReference: a backup restarted from its WAL
// starts with an empty request queue R. It fetches what it cannot rebuild,
// catches up with the cluster, and its chain matches.
func TestRestartedBackupCatchesUpByReference(t *testing.T) {
	c := newRestartCluster(t)
	c.tickUntil(c.allAtSeq(20), 30*time.Second, "initial seq 20")
	c.crash(3)
	c.tickUntil(func() bool { return minSeq(c.nodes[:3]) >= 30 }, 30*time.Second, "post-crash seq 30")

	n := c.start(3) // R is not persisted: the replica restarts without it
	c.tickUntil(c.allAtSeq(50), 60*time.Second, "post-restart seq 50")

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
	counters := n.FrontEnd().Counters()
	t.Logf("restarted backup: %d payload hits, %d misses", counters.PayloadHits.Load(), counters.PayloadMisses.Load())
	assertNoDuplicateLogs(t, n)
}
