package experiments

import (
	"strings"
	"testing"
	"time"

	"zugchain/internal/metrics"
	"zugchain/internal/netsim"
	"zugchain/internal/testbed"
)

// tinyOptions keeps experiment tests fast; correctness of the shapes is
// asserted by the full runs in bench_test.go / cmd/zc-experiments.
func tinyOptions() Options {
	return Options{Cycles: 30, TimeScale: 16, Seed: 1}
}

func TestFig6PayloadsProducesRows(t *testing.T) {
	old := PayloadSizes
	PayloadSizes = []int{32, 1024}
	defer func() { PayloadSizes = old }()

	rows, err := Fig6Payloads(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ZugChain.Ordered == 0 || r.Baseline.Ordered == 0 {
			t.Errorf("%s: empty run", r.Label)
		}
		if r.NetRatio < 1 {
			t.Errorf("%s: baseline used less bandwidth (%.2fx)", r.Label, r.NetRatio)
		}
	}
	out := FormatComparison("t", rows, "fig6")
	if !strings.Contains(out, "32B") || !strings.Contains(out, "net-x") {
		t.Errorf("format output missing columns:\n%s", out)
	}
	out = FormatComparison("t", rows, "fig7")
	if !strings.Contains(out, "cpu-x") {
		t.Errorf("fig7 format missing columns:\n%s", out)
	}
}

func TestFig8ViewChangeRecovery(t *testing.T) {
	res, err := Fig8(testbed.ZugChain, Options{Cycles: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultAt == 0 {
		t.Fatal("no fault injected")
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline")
	}
	// Requests decided after the fault must exist (recovery happened).
	post := 0
	for _, p := range res.Timeline {
		if p.Since > 0 {
			post++
		}
	}
	if post == 0 {
		t.Error("no decides after the fault")
	}
	if res.WorstLatency < 250*time.Millisecond {
		t.Errorf("worst latency %v; requests held through the view change should exceed the soft timeout", res.WorstLatency)
	}
	out := FormatFig8(res, res)
	if !strings.Contains(out, "recovered-in") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestFig9RowsAndFormat(t *testing.T) {
	rows := []Fig9Row{
		{Label: "normal"},
		fig9Row("fabricate 100%",
			testbed.Result{Latency: doubled(), CPUWorkPerNode: 200, AllocPerNode: 150, NetBytesPerNodePerSec: 120, Ordered: 80},
			testbed.Result{Latency: single(), CPUWorkPerNode: 100, AllocPerNode: 100, NetBytesPerNodePerSec: 100, Ordered: 40}),
	}
	r := rows[1]
	if r.LatPct != 100 || r.CPUPct != 100 || r.MemPct != 50 || r.NetPct != 20 || r.Fabricated != 40 {
		t.Errorf("percent deltas wrong: %+v", r)
	}
	out := FormatFig9(rows)
	if !strings.Contains(out, "fabricate 100%") {
		t.Errorf("format output:\n%s", out)
	}
}

func doubled() (s metrics.LatencyStats) { s.Median = 20 * time.Millisecond; return }
func single() (s metrics.LatencyStats)  { s.Median = 10 * time.Millisecond; return }

func TestTableIISmall(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth-shaped export is slow")
	}
	// At the paper's LTE rate the 50 extra blocks' ~69 KB take ~65 ms to
	// cross, over three times the read round's fixed cost (≤ 20 ms), so
	// the read is bandwidth-bound. At 100 Mbit/s they took ~6 ms, and
	// noise in the fixed cost could reorder the two rows.
	link := netsim.LinkProfile{BandwidthBps: netsim.LTE.BandwidthBps, Latency: time.Millisecond}
	rows, err := TableII(TableIIOptions{
		BlockCounts: []int{50, 100},
		Link:        link,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Exported != r.Blocks {
			t.Errorf("%d blocks: exported %d", r.Blocks, r.Exported)
		}
		if r.Read <= 0 || r.Delete <= 0 {
			t.Errorf("%d blocks: zero durations %+v", r.Blocks, r)
		}
		t.Logf("%d blocks: read %v for %d B", r.Blocks, r.Read, r.ReplyBytes)
		// The link serializes every reply the read collected.
		if min := time.Duration(float64(r.ReplyBytes*8) / link.BandwidthBps * float64(time.Second)); r.Read < min {
			t.Errorf("%d blocks: read %v, faster than %d B over the link (%v)", r.Blocks, r.Read, r.ReplyBytes, min)
		}
	}
	// Export time and the bytes received grow with block count
	// (bandwidth-bound).
	if rows[1].Read < rows[0].Read {
		t.Errorf("read time shrank with more blocks: %v then %v", rows[0].Read, rows[1].Read)
	}
	if rows[0].ReplyBytes <= 0 || rows[1].ReplyBytes <= rows[0].ReplyBytes {
		t.Errorf("reply bytes %d then %d: not growing with blocks", rows[0].ReplyBytes, rows[1].ReplyBytes)
	}
	out := FormatTableII(rows)
	if !strings.Contains(out, "#blocks") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestJRUCheck(t *testing.T) {
	check, err := RunJRUCheck(t.TempDir(), Options{Cycles: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !check.Pass {
		t.Errorf("JRU check failed: %+v", check)
	}
	if check.EventsPerSecond < 10 {
		t.Errorf("events/s = %v", check.EventsPerSecond)
	}
	out := FormatJRU(check)
	if !strings.Contains(out, "PASS") {
		t.Errorf("format output:\n%s", out)
	}
}
