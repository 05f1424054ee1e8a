package obsv

import (
	"runtime"
	"time"

	"zugchain/internal/metrics"
)

// Options parameterizes an Observer.
type Options struct {
	// TraceRing is the completed-trace retention (default
	// DefaultTraceRing); TraceSlow the slow-record threshold (0 = no slow
	// log).
	TraceRing int
	TraceSlow time.Duration
	// DisableTrace turns lifecycle tracing off entirely (the Tracer field
	// is nil; all stamp calls no-op). For A/B overhead measurement.
	DisableTrace bool
	// JournalSize is the consensus event retention (default
	// DefaultJournalSize).
	JournalSize int
}

// Observer bundles one process's observability state: the metrics registry,
// the record lifecycle tracer, and the consensus event journal. A node (or
// a daemon without a node, like zc-datacenter) builds one and registers its
// counter families into Registry; the HTTP server and the stats reporter
// read from it.
type Observer struct {
	Registry *Registry
	Tracer   *Tracer // nil when tracing is disabled
	Journal  *Journal

	start time.Time
}

// NewObserver builds an observer with runtime, tracer, and journal sources
// pre-registered.
func NewObserver(opts Options) *Observer {
	o := &Observer{
		Registry: NewRegistry(),
		Journal:  NewJournal(opts.JournalSize),
		start:    time.Now(),
	}
	if !opts.DisableTrace {
		o.Tracer = NewTracer(TracerOptions{Ring: opts.TraceRing, Slow: opts.TraceSlow})
		o.Tracer.RegisterOn(o.Registry)
	}
	o.Journal.RegisterOn(o.Registry)
	o.Registry.Register("runtime", runtimeMetrics)
	return o
}

// runtimeMetrics lists the Go runtime gauges (the paper's memory proxy,
// Fig 7) plus goroutine count.
func runtimeMetrics() []metrics.Metric {
	m := metrics.SampleMemory()
	return []metrics.Metric{
		metrics.Gauge("zugchain_go_heap_alloc_bytes", "Live heap bytes", float64(m.HeapAlloc)),
		metrics.Counter("zugchain_go_total_alloc_bytes", "Cumulative heap bytes allocated", m.TotalAlloc),
		metrics.Counter("zugchain_go_gc_total", "Completed GC cycles", uint64(m.NumGC)),
		metrics.Gauge("zugchain_go_goroutines", "Live goroutines", float64(runtime.NumGoroutine())),
	}
}

// Uptime reports how long the observer has existed.
func (o *Observer) Uptime() time.Duration { return time.Since(o.start) }
