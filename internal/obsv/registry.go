// Package obsv is ZugChain's unified observability layer: a metrics
// registry every counter family self-registers into, bounded log-bucketed
// latency histograms, per-record lifecycle tracing through the ordering
// pipeline, a consensus event journal, an HTTP export server (Prometheus
// text, JSON status, pprof), and the shared stats reporter the daemons
// print through. Everything on a hot path is atomic counters and ring
// buffers; nothing here grows with the number of records ordered.
package obsv

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"zugchain/internal/metrics"
)

// Source produces a family's current samples, typically a counter family's
// Metrics method. Sources must be safe to call concurrently (the families
// load atomics, so this is free).
type Source func() []metrics.Metric

// Registry maps family names to sources. Counter families register their
// Metrics method once at wiring time; Gather and WritePrometheus then pull a
// consistent point-in-time view on every scrape. Registering a name again
// replaces the previous source (a restarted subsystem re-registers). All
// methods are safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	order  []string
	srcs   map[string]Source
	hists  map[string]*histEntry
	horder []string
}

type histEntry struct {
	help string
	h    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		srcs:  make(map[string]Source),
		hists: make(map[string]*histEntry),
	}
}

// Register adds (or replaces) a named source.
func (r *Registry) Register(name string, src Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.srcs[name]; !exists {
		r.order = append(r.order, name)
	}
	r.srcs[name] = src
}

// RegisterHistogram adds (or replaces) a named histogram. name is the
// Prometheus base name; the exporter derives _bucket/_sum/_count series and
// the status/summary paths can read quantiles from it.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.hists[name]; !exists {
		r.horder = append(r.horder, name)
	}
	r.hists[name] = &histEntry{help: help, h: h}
}

// Sources returns the registered source names in registration order.
func (r *Registry) Sources() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Gather snapshots every source, in registration order.
func (r *Registry) Gather() []metrics.Metric {
	r.mu.RLock()
	srcs := make([]Source, 0, len(r.order))
	for _, name := range r.order {
		srcs = append(srcs, r.srcs[name])
	}
	r.mu.RUnlock()
	var out []metrics.Metric
	for _, src := range srcs {
		out = append(out, src()...)
	}
	return out
}

// Values flattens Gather into name{labels} -> value, the form the shared
// stats reporter reads.
func (r *Registry) Values() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range r.Gather() {
		key := m.Name
		if m.Labels != "" {
			key += "{" + m.Labels + "}"
		}
		out[key] = m.Value
	}
	return out
}

// Histogram returns the snapshot of a registered histogram, and whether the
// name is known.
func (r *Registry) Histogram(name string) (HistSnapshot, bool) {
	r.mu.RLock()
	e, ok := r.hists[name]
	r.mu.RUnlock()
	if !ok {
		return HistSnapshot{}, false
	}
	return e.h.Snapshot(), true
}

// Histograms returns the registered histogram names in registration order.
func (r *Registry) Histograms() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.horder...)
}

// WritePrometheus renders every source and histogram in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	samples := r.Gather()

	// One HELP/TYPE header per metric name, covering all its label
	// variants; variants stay in gather order under the header.
	seen := make(map[string]bool)
	var names []string
	byName := make(map[string][]metrics.Metric)
	for _, m := range samples {
		if !seen[m.Name] {
			seen[m.Name] = true
			names = append(names, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], m)
	}
	for _, name := range names {
		ms := byName[name]
		if ms[0].Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, sanitizeHelp(ms[0].Help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, promType(ms[0].Kind))
		for _, m := range ms {
			if m.Labels != "" {
				fmt.Fprintf(w, "%s{%s} %v\n", m.Name, m.Labels, m.Value)
			} else {
				fmt.Fprintf(w, "%s %v\n", m.Name, m.Value)
			}
		}
	}

	r.mu.RLock()
	horder := append([]string(nil), r.horder...)
	hists := make(map[string]*histEntry, len(horder))
	for _, n := range horder {
		hists[n] = r.hists[n]
	}
	r.mu.RUnlock()
	for _, name := range horder {
		e := hists[name]
		s := e.h.Snapshot()
		if e.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, sanitizeHelp(e.help))
		}
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		var cum uint64
		for _, b := range s.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=\"%v\"} %d\n", name, b.Upper.Seconds(), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
		fmt.Fprintf(w, "%s_sum %v\n", name, s.Sum.Seconds())
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	}
}

func promType(k metrics.MetricKind) string {
	if k == metrics.KindGauge {
		return "gauge"
	}
	return "counter"
}

func sanitizeHelp(s string) string {
	return strings.NewReplacer("\n", " ", "\\", `\\`).Replace(s)
}

// sortedKeys is a tiny helper for deterministic JSON/status output.
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
