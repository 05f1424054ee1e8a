package main

import (
	"errors"
	"testing"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/core"
	"zugchain/internal/crypto"
	"zugchain/internal/export"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/wire"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 99, true},
		{1000, 99, true},
		{999, 98, true}, // p99 would leave 9.99 beyond
		{500, 98, true},
		{312, 95, true}, // one 10 s window of the 32 ms bus cycle
		{200, 95, true},
		{199, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.n != 1000 || s.p50 != 500 || s.tailPct != 99 || s.tail != 990 || s.maxValue != 1000 {
		t.Fatalf("summarize(1..1000) = %+v", s)
	}
	// Two levels holding the middle of the distribution: p50 sits between
	// them in proportion to their mass, instead of jumping to either.
	var lv []float64
	for i := 0; i < 100; i++ {
		if i < 50 {
			lv = append(lv, 10)
		} else {
			lv = append(lv, 20)
		}
	}
	if got := summarize(lv).p50; got <= 10 || got >= 20 {
		t.Fatalf("p50 of two equal levels = %v, want between them", got)
	}
	few := summarize([]float64{3, 1, 2})
	if few.tailPct != 100 || few.tail != 3 || few.p50 != 2 {
		t.Fatalf("summarize of 3 samples = %+v, want the maximum as tail", few)
	}
}

func TestClassifyByWireTag(t *testing.T) {
	cases := []struct {
		msg  wire.Message
		want msgClass
	}{
		{&pbft.PrePrepare{}, clsPrePrepare},
		{&pbft.Prepare{}, clsPrepare},
		{&pbft.Commit{}, clsCommit},
		{&pbft.Checkpoint{}, clsCheckpoint},
		{&pbft.ViewChange{}, clsViewChange},
		{&pbft.NewView{}, clsNewView},
		{&core.ZCRequest{}, clsZCRequest},
		{&export.ReadRequest{}, clsExport},
		{&export.DeleteAck{}, clsExport},
	}
	for _, c := range cases {
		frame := wire.Marshal(c.msg)
		if got := classify(frame); got != c.want {
			t.Errorf("classify(%T) = %s, want %s", c.msg, classNames[got], classNames[c.want])
		}
	}
	if got := classify([]byte{0x10}); got != clsOther {
		t.Errorf("1-byte frame classified as %s", classNames[got])
	}
	if got := classify([]byte{0x99, 0x00, 1, 2}); got != clsOther {
		t.Errorf("unknown tag classified as %s", classNames[got])
	}
}

func TestTapCountsBroadcastPerPeer(t *testing.T) {
	tap := &netTap{}
	frame := wire.Marshal(&pbft.Prepare{})
	tap.count(frame, 3)
	if tap.msgs[clsPrepare].Load() != 3 || tap.bytes[clsPrepare].Load() != uint64(3*len(frame)) || tap.calls[clsPrepare].Load() != 1 {
		t.Fatalf("broadcast to 3 peers counted as %d msgs, %d bytes, %d calls",
			tap.msgs[clsPrepare].Load(), tap.bytes[clsPrepare].Load(), tap.calls[clsPrepare].Load())
	}
}

// memChain is a replica store holding blocks 1..len(blocks).
type memChain struct{ blocks []*blockchain.Block }

func (m *memChain) HeadIndex() uint64 { return uint64(len(m.blocks)) }

func (m *memChain) Get(i uint64) (*blockchain.Block, error) {
	if i == 0 || i > uint64(len(m.blocks)) {
		return nil, errors.New("not found")
	}
	return m.blocks[i-1], nil
}

func testChain(n int, payload string) []*blockchain.Block {
	bd := blockchain.NewBuilder(blockchain.Genesis(), 1)
	var out []*blockchain.Block
	for seq := uint64(1); len(out) < n; seq++ {
		if b := bd.Add(blockchain.Entry{Seq: seq, Origin: crypto.NodeID(0), Payload: []byte(payload)}); b != nil {
			out = append(out, b)
		}
	}
	return out
}

func TestQuorumDetectorNeedsThreeStores(t *testing.T) {
	chain := testChain(2, "r")
	var recorded []uint64
	d := newQuorumDetector(numReplicas, quorumSize, func(b *blockchain.Block, _ time.Time) {
		recorded = append(recorded, b.Index)
	})
	stores := []*memChain{{}, {}, {}, {}}
	srcs := func() []chainSource {
		out := make([]chainSource, len(stores))
		for i, s := range stores {
			out[i] = s
		}
		return out
	}
	stores[0].blocks = chain[:1]
	stores[1].blocks = chain[:1]
	d.poll(srcs(), time.Now())
	if len(recorded) != 0 {
		t.Fatalf("block on 2 of 4 stores counted as recorded: %v", recorded)
	}
	stores[2].blocks = chain[:1]
	d.poll(srcs(), time.Now())
	if len(recorded) != 1 || recorded[0] != 1 {
		t.Fatalf("block on 3 of 4 stores: recorded %v, want [1]", recorded)
	}
	stores[3].blocks = chain[:1]
	stores[0].blocks = chain
	d.poll(srcs(), time.Now())
	if len(recorded) != 1 {
		t.Fatalf("4th store re-recorded a block: %v", recorded)
	}
}

func TestQuorumDetectorReportsFork(t *testing.T) {
	a, b := testChain(1, "a"), testChain(1, "b")
	d := newQuorumDetector(numReplicas, quorumSize, func(*blockchain.Block, time.Time) {})
	d.poll([]chainSource{&memChain{a}, &memChain{a}, &memChain{b}, &memChain{}}, time.Now())
	if d.err == nil {
		t.Fatal("different blocks at one index were not reported as a fork")
	}
}

func TestBusRecordsIdentifyTheirCycle(t *testing.T) {
	filter := signal.NewFilter(nil)
	for id := uint64(0); id < 5; id++ {
		p, err := busRecord(busFrame(7, id, 1024), filter)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := busIdent(p); !ok || got != id {
			t.Fatalf("record of cycle %d identified as %d, %v", id, got, ok)
		}
		if len(p) < 1024-sizeJitter || len(p) > 1024+sizeJitter {
			t.Fatalf("record of cycle %d is %d bytes, want 1024±%d", id, len(p), sizeJitter)
		}
	}
}
