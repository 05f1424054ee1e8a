// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): Fig 6 (network utilization and latency vs bus cycle and
// payload size), Fig 7 (CPU and memory proxies), Fig 8 (request latency
// through a view change), Table II (export latency), Fig 9 (Byzantine
// behaviours), and the JRU requirements check. Each experiment returns
// structured rows and renders a paper-style text table.
//
// Scenarios are scaled down from the paper's 5×5-minute runs (see
// testbed.Scenario.TimeScale); EXPERIMENTS.md records how the measured
// shapes compare to the published numbers.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"zugchain/internal/testbed"
)

// Options tune experiment cost. Defaults reproduce the shapes quickly.
type Options struct {
	// Cycles per scenario run.
	Cycles int
	// TimeScale divides bus cycle and timeouts (see testbed).
	TimeScale int
	// Seed for reproducibility.
	Seed int64
}

// DefaultOptions runs each point for 80 cycles at 1/8 time scale.
func DefaultOptions() Options {
	return Options{Cycles: 80, TimeScale: 8, Seed: 1}
}

// ComparisonRow is one sweep point comparing ZugChain against the baseline.
type ComparisonRow struct {
	Label     string // e.g. "64ms" or "1024B"
	ZugChain  testbed.Result
	Baseline  testbed.Result
	NetRatio  float64 // baseline / zugchain network bytes per second
	LatRatio  float64 // baseline / zugchain median latency
	CPURatio  float64 // baseline / zugchain CPU work proxy
	HeapRatio float64 // baseline / zugchain allocation per node
}

func compareAt(s testbed.Scenario) (ComparisonRow, error) {
	zcScenario := s
	zcScenario.System = testbed.ZugChain
	zc, err := testbed.Run(zcScenario)
	if err != nil {
		return ComparisonRow{}, fmt.Errorf("zugchain run: %w", err)
	}
	blScenario := s
	blScenario.System = testbed.Baseline
	bl, err := testbed.Run(blScenario)
	if err != nil {
		return ComparisonRow{}, fmt.Errorf("baseline run: %w", err)
	}
	row := ComparisonRow{ZugChain: *zc, Baseline: *bl}
	row.NetRatio = ratio(bl.NetBytesPerNodePerSec, zc.NetBytesPerNodePerSec)
	row.LatRatio = ratio(float64(bl.Latency.Median), float64(zc.Latency.Median))
	row.CPURatio = ratio(bl.CPUWorkPerNode, zc.CPUWorkPerNode)
	row.HeapRatio = ratio(float64(bl.AllocPerNode), float64(zc.AllocPerNode))
	return row, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// BusCycles are the Fig 6/7 sweep points (32 ms is the MVB minimum).
var BusCycles = []time.Duration{
	32 * time.Millisecond,
	64 * time.Millisecond,
	128 * time.Millisecond,
	256 * time.Millisecond,
}

// PayloadSizes are the Fig 6/7 payload sweep points at a 64 ms cycle.
var PayloadSizes = []int{32, 1024, 2048, 4096, 8192}

// Fig6BusCycles reproduces Fig 6 (left): network utilization and latency
// for bus cycles from 32 to 256 ms at 1 kB payloads.
func Fig6BusCycles(opt Options) ([]ComparisonRow, error) {
	rows := make([]ComparisonRow, 0, len(BusCycles))
	for _, cycle := range BusCycles {
		row, err := compareAt(testbed.Scenario{
			BusCycle:    cycle,
			PayloadSize: 1024,
			Cycles:      opt.Cycles,
			TimeScale:   opt.TimeScale,
			Seed:        opt.Seed,
		})
		if err != nil {
			return nil, err
		}
		row.Label = fmt.Sprintf("%dms", cycle.Milliseconds())
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig6Payloads reproduces Fig 6 (right): payload sizes from 32 B to 8 kB at
// the common 64 ms bus cycle.
func Fig6Payloads(opt Options) ([]ComparisonRow, error) {
	rows := make([]ComparisonRow, 0, len(PayloadSizes))
	for _, size := range PayloadSizes {
		row, err := compareAt(testbed.Scenario{
			BusCycle:    64 * time.Millisecond,
			PayloadSize: size,
			Cycles:      opt.Cycles,
			TimeScale:   opt.TimeScale,
			Seed:        opt.Seed,
		})
		if err != nil {
			return nil, err
		}
		row.Label = fmt.Sprintf("%dB", size)
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7BusCycles and Fig7Payloads share the runs of Fig 6 — the paper's
// Fig 7 reports CPU and memory from the same sweeps — so they simply rerun
// the sweep and present the resource columns.
func Fig7BusCycles(opt Options) ([]ComparisonRow, error) { return Fig6BusCycles(opt) }

// Fig7Payloads is the payload-size resource sweep (see Fig7BusCycles).
func Fig7Payloads(opt Options) ([]ComparisonRow, error) { return Fig6Payloads(opt) }

// FormatComparison renders comparison rows as a paper-style table. which
// selects the columns: "fig6" (network + latency) or "fig7" (CPU + memory).
func FormatComparison(title string, rows []ComparisonRow, which string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	switch which {
	case "fig6":
		fmt.Fprintf(&b, "%-8s %14s %14s %7s %12s %12s %7s\n",
			"point", "zc-net(B/s)", "bl-net(B/s)", "net-x",
			"zc-lat", "bl-lat", "lat-x")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-8s %14.0f %14.0f %6.1fx %12v %12v %6.1fx\n",
				r.Label,
				r.ZugChain.NetBytesPerNodePerSec, r.Baseline.NetBytesPerNodePerSec, r.NetRatio,
				r.ZugChain.Latency.Median.Round(time.Microsecond),
				r.Baseline.Latency.Median.Round(time.Microsecond), r.LatRatio)
		}
	case "fig7":
		fmt.Fprintf(&b, "%-8s %12s %12s %7s %12s %12s %7s\n",
			"point", "zc-cpu(wu)", "bl-cpu(wu)", "cpu-x",
			"zc-alloc(B)", "bl-alloc(B)", "mem-x")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-8s %12.0f %12.0f %6.1fx %12d %12d %6.1fx\n",
				r.Label,
				r.ZugChain.CPUWorkPerNode, r.Baseline.CPUWorkPerNode, r.CPURatio,
				r.ZugChain.AllocPerNode, r.Baseline.AllocPerNode, r.HeapRatio)
		}
	}
	return b.String()
}

// Fig8Result is the view-change latency timeline of Fig 8.
type Fig8Result struct {
	System testbed.System
	// FaultAt is when the primary was killed, relative to run start.
	FaultAt time.Duration
	// Timeline holds decide-time (relative to FaultAt) and latency.
	Timeline []testbed.TimelinePoint
	// SteadyBefore is the median latency before the fault.
	SteadyBefore time.Duration
	// RecoveredAfter is when latency returned to twice the pre-fault
	// median, relative to the fault (see recoveredAt); Recovered is false if
	// it never did.
	RecoveredAfter time.Duration
	Recovered      bool
	// WorstLatency is the maximum latency observed (requests held through
	// the view change).
	WorstLatency time.Duration
}

// Fig8 reproduces the view-change experiment: at a 64 ms bus cycle the
// primary dies; ZugChain (soft+hard 250 ms each) and the baseline (one-shot
// 500 ms client timeout) recover through a view change. Run at TimeScale 1
// so the timeline is directly comparable to the paper's milliseconds.
func Fig8(system testbed.System, opt Options) (*Fig8Result, error) {
	cycles := opt.Cycles
	if cycles < 120 {
		cycles = 120
	}
	res, err := testbed.Run(testbed.Scenario{
		System:                system,
		BusCycle:              64 * time.Millisecond,
		Cycles:                cycles,
		TimeScale:             1,
		KillPrimaryAtCycle:    cycles / 2,
		SuspectOnFirstTimeout: true,
		Seed:                  opt.Seed,
	})
	if err != nil {
		return nil, err
	}

	out := &Fig8Result{System: system, FaultAt: res.FaultAt}
	sort.Slice(res.Timeline, func(i, j int) bool {
		return res.Timeline[i].Since < res.Timeline[j].Since
	})
	var before []time.Duration
	for _, p := range res.Timeline {
		rel := p.Since - res.FaultAt
		out.Timeline = append(out.Timeline, testbed.TimelinePoint{Since: rel, Latency: p.Latency})
		if rel < 0 {
			before = append(before, p.Latency)
		}
		if p.Latency > out.WorstLatency {
			out.WorstLatency = p.Latency
		}
	}
	if len(before) > 0 {
		sort.Slice(before, func(i, j int) bool { return before[i] < before[j] })
		out.SteadyBefore = before[len(before)/2]
	}
	threshold := 2 * out.SteadyBefore
	if threshold == 0 {
		threshold = 50 * time.Millisecond
	}
	out.RecoveredAfter, out.Recovered = recoveredAt(out.Timeline, threshold)
	return out, nil
}

// recoveryWindow is the number of consecutive decides Fig 8's recovery rule
// takes the median of.
const recoveryWindow = 10

// recoveredAt applies Fig 8's recovery rule to a timeline sorted by decide
// time, relative to the fault: latency has recovered at the first post-fault
// decide that completes a window of recoveryWindow consecutive post-fault
// decides whose median latency is under threshold. A few slow decides in a
// window do not hold recovery back; a slow stretch over half a window long
// does. ok is false if no window qualifies.
func recoveredAt(timeline []testbed.TimelinePoint, threshold time.Duration) (at time.Duration, ok bool) {
	start := sort.Search(len(timeline), func(i int) bool { return timeline[i].Since > 0 })
	window := make([]time.Duration, recoveryWindow)
	for end := start + recoveryWindow; end <= len(timeline); end++ {
		for j, p := range timeline[end-recoveryWindow : end] {
			window[j] = p.Latency
		}
		slices.Sort(window)
		if window[recoveryWindow/2] < threshold {
			return timeline[end-1].Since, true
		}
	}
	return 0, false
}

// FormatFig8 renders both systems' view-change behaviour.
func FormatFig8(zc, bl *Fig8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: request latency through a view change (fault at t=0)\n")
	fmt.Fprintf(&b, "%-10s %14s %16s %14s\n", "system", "steady-lat", "worst-lat", "recovered-in")
	for _, r := range []*Fig8Result{zc, bl} {
		recovered := "never"
		if r.Recovered {
			recovered = r.RecoveredAfter.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-10s %14v %16v %14s\n",
			r.System, r.SteadyBefore.Round(time.Microsecond),
			r.WorstLatency.Round(time.Millisecond), recovered)
	}
	return b.String()
}

// Fig9Row is one Byzantine-behaviour measurement of Fig 9.
type Fig9Row struct {
	Label      string
	Result     testbed.Result
	LatPct     float64 // latency increase vs clean, percent
	CPUPct     float64 // CPU proxy increase vs clean, percent
	MemPct     float64 // allocation increase vs clean, percent
	NetPct     float64 // network change vs clean, percent
	Fabricated uint64  // extra ordered requests vs clean
}

// Fig9 reproduces the Byzantine-behaviour experiment: a faulty backup
// fabricates requests in 25/75/100 % of bus cycles, and a faulty primary
// delays its preprepares past the soft (but not hard) timeout.
func Fig9(opt Options) ([]Fig9Row, error) {
	base := testbed.Scenario{
		BusCycle:    64 * time.Millisecond,
		PayloadSize: 1024,
		Cycles:      opt.Cycles,
		TimeScale:   opt.TimeScale,
		Seed:        opt.Seed,
	}
	clean, err := testbed.Run(base)
	if err != nil {
		return nil, err
	}
	rows := []Fig9Row{{Label: "normal", Result: *clean}}

	for _, rate := range []float64{0.25, 0.75, 1.0} {
		s := base
		s.FabricateRate = rate
		res, err := testbed.Run(s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, fig9Row(fmt.Sprintf("fabricate %.0f%%", rate*100), *res, *clean))
	}

	s := base
	s.PrimaryDelay = 300 * time.Millisecond // past soft (250), short of soft+hard
	res, err := testbed.Run(s)
	if err != nil {
		return nil, err
	}
	rows = append(rows, fig9Row("primary +delay", *res, *clean))
	return rows, nil
}

func fig9Row(label string, res, clean testbed.Result) Fig9Row {
	pct := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return (a - b) / b * 100
	}
	row := Fig9Row{Label: label, Result: res}
	row.LatPct = pct(float64(res.Latency.Median), float64(clean.Latency.Median))
	row.CPUPct = pct(res.CPUWorkPerNode, clean.CPUWorkPerNode)
	row.MemPct = pct(float64(res.AllocPerNode), float64(clean.AllocPerNode))
	row.NetPct = pct(res.NetBytesPerNodePerSec, clean.NetBytesPerNodePerSec)
	if res.Ordered > clean.Ordered {
		row.Fabricated = res.Ordered - clean.Ordered
	}
	return row
}

// FormatFig9 renders the Byzantine-behaviour table.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 9: Byzantine behaviour (deltas vs normal operation)\n")
	fmt.Fprintf(&b, "%-16s %12s %8s %8s %8s %8s %8s\n",
		"behaviour", "median-lat", "lat%", "cpu%", "mem%", "net%", "extra")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %12v %+7.0f%% %+7.0f%% %+7.0f%% %+7.0f%% %8d\n",
			r.Label, r.Result.Latency.Median.Round(time.Microsecond),
			r.LatPct, r.CPUPct, r.MemPct, r.NetPct, r.Fabricated)
	}
	return b.String()
}
