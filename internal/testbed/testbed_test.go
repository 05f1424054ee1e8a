package testbed

import (
	"testing"
	"time"

	"zugchain/internal/mvb"
	"zugchain/internal/node"
)

// quickScenario returns a small, fast scenario for tests. Under the race
// detector the time compression is relaxed: instrumented crypto is too slow
// for 8 ms bus cycles.
func quickScenario(system System) Scenario {
	s := Scenario{
		System:    system,
		BusCycle:  64 * time.Millisecond,
		Cycles:    40,
		TimeScale: 8, // 8 ms cycles, 31.25 ms timeouts
	}
	if RaceEnabled {
		s.TimeScale = 2
		s.Cycles = 25
	}
	return s
}

func TestRunZugChainScenario(t *testing.T) {
	res, err := Run(quickScenario(ZugChain))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count == 0 {
		t.Fatal("no latency samples")
	}
	if res.Ordered == 0 {
		t.Error("no requests ordered")
	}
	if res.Blocks == 0 {
		t.Error("no blocks built")
	}
	if res.NetBytesPerNodePerSec <= 0 || res.CPUWorkPerNode <= 0 {
		t.Errorf("resource metrics empty: %+v", res)
	}
	// Duplicate filtering must have removed the other 3 nodes' copies.
	if res.Duplicates == 0 {
		t.Error("no duplicates filtered despite 4 readers")
	}
}

func TestRunBaselineScenario(t *testing.T) {
	res, err := Run(quickScenario(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count == 0 {
		t.Fatal("no latency samples")
	}
	if res.Ordered == 0 {
		t.Error("no requests ordered")
	}
}

func TestBaselineOrdersMoreThanZugChain(t *testing.T) {
	if RaceEnabled {
		t.Skip("throughput comparison is meaningless under the race detector's slowdown")
	}
	zc, err := Run(quickScenario(ZugChain))
	if err != nil {
		t.Fatal(err)
	}
	bl, err := Run(quickScenario(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: identical input is ordered up to n=4 times in
	// the baseline, once in ZugChain. Allow slack for drops/timing.
	if bl.Ordered < zc.Ordered*2 {
		t.Errorf("baseline ordered %d, zugchain %d: duplication factor lost",
			bl.Ordered, zc.Ordered)
	}
	if bl.NetBytesPerNodePerSec < zc.NetBytesPerNodePerSec*15/10 {
		t.Errorf("baseline net %v B/s vs zugchain %v B/s: expected ~4x",
			bl.NetBytesPerNodePerSec, zc.NetBytesPerNodePerSec)
	}
}

func TestFabricationScenario(t *testing.T) {
	if RaceEnabled {
		t.Skip("throughput comparison is meaningless under the race detector's slowdown")
	}
	s := quickScenario(ZugChain)
	s.FabricateRate = 1.0
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(quickScenario(ZugChain))
	if err != nil {
		t.Fatal(err)
	}
	// Fabricated requests are still ordered (benign nodes must be able to
	// propose uniquely received messages), increasing total load.
	if res.Ordered <= clean.Ordered {
		t.Errorf("fabrication did not add ordered requests: %d vs %d",
			res.Ordered, clean.Ordered)
	}
}

func TestPrimaryDelayScenario(t *testing.T) {
	s := quickScenario(ZugChain)
	s.PrimaryDelay = 250 * time.Millisecond // scaled to ~31ms > soft timeout
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(quickScenario(ZugChain))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Median <= clean.Latency.Median {
		t.Errorf("delayed primary did not raise latency: %v vs %v",
			res.Latency.Median, clean.Latency.Median)
	}
}

func TestViewChangeScenario(t *testing.T) {
	s := quickScenario(ZugChain)
	s.Cycles = 80
	s.KillPrimaryAtCycle = 30
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultAt == 0 {
		t.Fatal("fault was not injected")
	}
	// Ordering must resume after the view change: some decide later than
	// the fault plus the (scaled) soft+hard timeout.
	recoveryCutoff := res.FaultAt + (500*time.Millisecond)/time.Duration(s.TimeScale)
	resumed := false
	for _, p := range res.Timeline {
		if p.Since > recoveryCutoff {
			resumed = true
			break
		}
	}
	if !resumed {
		t.Error("no requests ordered after the view change")
	}
}

func TestBusFaultScenario(t *testing.T) {
	s := quickScenario(ZugChain)
	s.BusFaults = []mvb.FaultConfig{
		{DropRate: 0.3},
		{BitFlipRate: 0.2},
		{},
		{},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ordered == 0 || res.Blocks == 0 {
		t.Errorf("faulty-bus run produced nothing: %+v", res)
	}
}

// TestOrderedCountsChainRecords: for both systems, a fault-free run reports
// as Ordered exactly the records on the reporting node's chain, including
// any a state transfer installed rather than the front end logged.
func TestOrderedCountsChainRecords(t *testing.T) {
	for _, system := range []System{ZugChain, Baseline} {
		var onChain, logged uint64
		res, err := run(quickScenario(system), func(report *node.Node) {
			st := report.Store()
			for idx := uint64(1); idx <= st.HeadIndex(); idx++ {
				b, err := st.Get(idx)
				if err != nil {
					t.Fatalf("block %d: %v", idx, err)
				}
				onChain += uint64(len(b.Entries))
			}
			logged = report.FrontEnd().Counters().Requests.Load()
		})
		if err != nil {
			t.Fatal(err)
		}
		if onChain == 0 || res.Ordered != onChain {
			t.Errorf("system %v: Ordered = %d, chain holds %d records", system, res.Ordered, onChain)
		}
		if logged > onChain {
			t.Errorf("system %v: front end logged %d records, chain holds %d", system, logged, onChain)
		}
	}
}
