// The observability overhead guard: lifecycle tracing must cost less than
// 5% of ordering throughput, since it runs on the hot path of every record.
// The guard orders the same workload through two clusters — tracer off
// (node.Config.DisableTrace) and tracer on — interleaved to share thermal
// and scheduler conditions, and compares the best pass of each side (best-
// of-N discards scheduler noise, which only ever slows a pass down).
//
// The run is a full four-node PBFT cluster with real Ed25519, so it takes
// tens of seconds; it is gated behind ZUGCHAIN_BENCH_GUARD=1 (make
// bench-guard) to keep the tier-1 suite fast.
package zugchain_test

import (
	"os"
	"testing"
	"time"

	"zugchain/internal/node"
)

// orderingRate orders `records` records through a fresh in-process four-node
// cluster and returns the achieved records/second. mutate adjusts each
// node's config (nil = stock).
func orderingRate(t *testing.T, records uint64, mutate func(*node.Config)) float64 {
	t.Helper()
	net, trs := inprocTransports()
	defer net.Close()
	l := newOrderingLoad(t, trs, 64, mutate)
	defer l.stop()
	start := time.Now()
	if err := l.orderUpTo(records); err != nil {
		t.Fatal(err)
	}
	return float64(records) / time.Since(start).Seconds()
}

// TestTracerOverheadGuard is the ISSUE's acceptance check: tracer-on
// throughput within 5% of tracer-off, numbers reported.
func TestTracerOverheadGuard(t *testing.T) {
	if os.Getenv("ZUGCHAIN_BENCH_GUARD") == "" {
		t.Skip("set ZUGCHAIN_BENCH_GUARD=1 (make bench-guard) to run the tracer overhead guard")
	}
	const records = 6144
	const passes = 3

	// Warm up once (key generation, scheduler, page cache) before measuring.
	orderingRate(t, 1024, nil)

	best := func(rates []float64) float64 {
		b := rates[0]
		for _, r := range rates[1:] {
			if r > b {
				b = r
			}
		}
		return b
	}
	var off, on []float64
	for i := 0; i < passes; i++ {
		off = append(off, orderingRate(t, records, func(c *node.Config) { c.DisableTrace = true }))
		on = append(on, orderingRate(t, records, nil))
		t.Logf("pass %d: tracer-off %.0f rec/s, tracer-on %.0f rec/s", i+1, off[i], on[i])
	}

	bo, bn := best(off), best(on)
	ratio := bn / bo
	t.Logf("best-of-%d: tracer-off %.0f rec/s, tracer-on %.0f rec/s, ratio %.3f (floor 0.95)",
		passes, bo, bn, ratio)
	if ratio < 0.95 {
		t.Errorf("lifecycle tracing costs %.1f%% of ordering throughput, budget is 5%%", (1-ratio)*100)
	}
}
