package node

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zugchain/internal/mvb"
	"zugchain/internal/obsv"
)

// TestNodeRegistersCounterFamilies: every counter family the node owns must
// self-register into its observer at wiring time, so /metrics serves them
// all without per-family plumbing in the daemons.
func TestNodeRegistersCounterFamilies(t *testing.T) {
	c := newCluster(t, func(cfg *Config) {
		cfg.DataDir = t.TempDir() + "/" + string(rune('a'+cfg.ID))
	}, nil)
	n := c.nodes[0]

	want := []string{
		"core", "batch", "pool", "crypto", "wal", "store",
		"chain", "tracer", "journal", "runtime",
	}
	got := make(map[string]bool)
	for _, name := range n.Obs().Registry.Sources() {
		got[name] = true
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("source %q not registered (have %v)", name, n.Obs().Registry.Sources())
		}
	}
}

// TestNodeMetricsEndToEnd orders real traffic, then scrapes the node's
// observer the way Prometheus would and checks the five counter families
// plus the per-phase commit-latency histograms carry live values.
func TestNodeMetricsEndToEnd(t *testing.T) {
	c := newCluster(t, func(cfg *Config) {
		cfg.CheckpointInterval = 5
		cfg.DataDir = t.TempDir() + "/" + string(rune('a'+cfg.ID))
	}, nil)
	c.tickUntilSeq(10, 30*time.Second)

	srv := httptest.NewServer(obsv.Handler(c.nodes[0].Obs()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)

	// One representative series per counter family, plus the chain gauges
	// and the tracer histograms the acceptance criteria name.
	for _, name := range []string{
		"zugchain_core_ordered_total",
		"zugchain_batch_flushes_total",
		"zugchain_pool_offloaded_total",
		"zugchain_crypto_scalar_verifies_total",
		"zugchain_wal_records_total",
		"zugchain_store_blocks_total",
		"zugchain_chain_height",
		"zugchain_trace_commit_seconds_bucket",
		"zugchain_trace_total_seconds_count",
		"zugchain_events_total",
		"zugchain_go_goroutines",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	v := c.nodes[0].Obs().Registry.Values()
	for _, name := range []string{
		"zugchain_core_ordered_total",
		"zugchain_wal_records_total",
		"zugchain_store_blocks_total",
		"zugchain_chain_height",
	} {
		if v[name] <= 0 {
			t.Errorf("%s = %v after ordering real blocks, want > 0", name, v[name])
		}
	}

	// Ordered records complete lifecycle traces; sealed checkpoints resolve
	// their fsync stamps.
	tr := c.nodes[0].Obs().Tracer
	if tr.Completed() == 0 {
		t.Error("no completed lifecycle traces after ordering records")
	}
	if s := tr.TotalSnapshot(); s.Count == 0 {
		t.Error("ingest-to-execute histogram empty after ordering records")
	}
	if s := tr.PhaseSnapshot(obsv.PhaseFsync); s.Count == 0 {
		t.Error("fsync histogram empty after sealing blocks")
	}

	// The journal saw at least the view-0 primary election.
	if c.nodes[0].Obs().Journal.Total() == 0 {
		t.Error("journal empty after startup")
	}
}

// TestNodeCountsLayerTraffic: the communication layer's receive and
// verification series must move once peers exchange requests. The view-0
// primary's reader misses every bus frame, so the backups' soft timeouts
// fire and every replica receives and verifies their broadcasts.
func TestNodeCountsLayerTraffic(t *testing.T) {
	c := newCluster(t, nil, []mvb.FaultConfig{{DropRate: 1}, {}, {}, {}})
	c.tickUntilSeq(10, 30*time.Second)

	for i, n := range c.nodes {
		v := n.Obs().Registry.Values()
		for _, name := range []string{
			"zugchain_core_msgs_received_total",
			"zugchain_core_bytes_received_total",
			"zugchain_core_verifications_total",
		} {
			if v[name] <= 0 {
				t.Errorf("node %d: %s = %v after peer broadcasts, want > 0", i, name, v[name])
			}
		}
	}
}

// TestNodeDisableTrace: the A side of the overhead benchmark — a node built
// with DisableTrace must run with a nil tracer and still serve /metrics.
func TestNodeDisableTrace(t *testing.T) {
	c := newCluster(t, func(cfg *Config) {
		cfg.DisableTrace = true
	}, nil)
	n := c.nodes[0]
	if n.Obs().Tracer != nil {
		t.Fatal("DisableTrace node still built a tracer")
	}
	c.tickUntilSeq(10, 30*time.Second)
	srv := httptest.NewServer(obsv.Handler(n.Obs()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "zugchain_core_ordered_total") {
		t.Fatalf("/metrics with tracing off = %d:\n%s", resp.StatusCode, body)
	}
}
