package obsv

import (
	"strings"
	"sync"
	"testing"
	"time"

	"zugchain/internal/metrics"
)

func TestReporterOffAtZeroInterval(t *testing.T) {
	called := false
	r := NewReporter(0, func() string { called = true; return "x" }, func(string, ...any) {})
	time.Sleep(20 * time.Millisecond)
	r.Stop()
	r.Stop() // idempotent
	if called {
		t.Fatal("line func called with interval 0 (0 = off must be preserved)")
	}
}

func TestReporterTicksAndStops(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, args[0].(string))
		mu.Unlock()
	}
	n := 0
	r := NewReporter(5*time.Millisecond, func() string {
		n++
		if n == 2 {
			return "" // empty lines are skipped, not logged
		}
		return "tick"
	}, logf)
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		got := len(lines)
		mu.Unlock()
		if got >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reporter produced %d lines in 2s, want >= 2", got)
		}
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if l != "tick" {
			t.Fatalf("logged %q, want only non-empty ticks", l)
		}
	}
}

func TestSummaryOmitsAbsentFamilies(t *testing.T) {
	o := NewObserver(Options{DisableTrace: true})
	// Only the journal/runtime families exist: no chain, core, net, crypto,
	// or WAL fragments may appear.
	s := Summary(o)
	for _, frag := range []string{"height=", "ordered=", "net(", "crypto(", "wal("} {
		if strings.Contains(s, frag) {
			t.Fatalf("summary %q contains %q for an unregistered family", s, frag)
		}
	}

	o.Registry.Register("chain", func() []metrics.Metric {
		return []metrics.Metric{
			{Name: "zugchain_chain_height", Kind: metrics.KindGauge, Value: 12},
			{Name: "zugchain_chain_base", Kind: metrics.KindGauge, Value: 3},
		}
	})
	s = Summary(o)
	if !strings.Contains(s, "height=12") || !strings.Contains(s, "base=3") {
		t.Fatalf("summary %q missing chain family", s)
	}
}

func TestSummaryLatencyFromTracer(t *testing.T) {
	o := NewObserver(Options{TraceRing: 8})
	d := digestFor(77)
	o.Tracer.BeginRecord(d)
	time.Sleep(time.Millisecond)
	o.Tracer.FinishRecord(d, 1)
	s := Summary(o)
	if !strings.Contains(s, "lat(p50=") {
		t.Fatalf("summary %q missing latency block after a completed trace", s)
	}
}
