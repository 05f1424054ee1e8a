package cli

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"zugchain/internal/node"
)

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("0=localhost:7100, 1=10.0.0.2:7101,2=host:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers[0] != "localhost:7100" || peers[1] != "10.0.0.2:7101" {
		t.Errorf("peers = %v", peers)
	}
}

func TestParsePeersErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"whitespace", "   "},
		{"missing equals", "0localhost:7100"},
		{"missing addr", "0="},
		{"missing id", "=localhost:1"},
		{"non-numeric id", "abc=localhost:1"},
		{"duplicate id", "0=a:1,0=b:2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParsePeers(tt.in); err == nil {
				t.Errorf("ParsePeers(%q) succeeded", tt.in)
			}
		})
	}
}

func TestBindNodeFlagsParsesIntoConfig(t *testing.T) {
	var cfg node.Config
	fs := flag.NewFlagSet("zugchain", flag.ContinueOnError)
	BindNodeFlags(fs, &cfg)
	if cfg.MaxBatch != 16 || cfg.MaxBatchDelay != 2*time.Millisecond || cfg.DisableBatchVerify {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	line := "-batch-size 64 -batch-delay 100ms -verify-cache -1 -batch-verify=false -trace-slow 5ms -trace-ring 512"
	if err := fs.Parse(strings.Fields(line)); err != nil {
		t.Fatal(err)
	}
	want := node.Config{
		MaxBatch:           64,
		MaxBatchDelay:      100 * time.Millisecond,
		VerifyCacheSize:    -1,
		DisableBatchVerify: true,
		TraceSlow:          5 * time.Millisecond,
		TraceRing:          512,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("parsed %+v, want %+v", cfg, want)
	}
	if err := fs.Parse([]string{"-batch-verify"}); err != nil || cfg.DisableBatchVerify {
		t.Errorf("-batch-verify alone: err %v, DisableBatchVerify %v", err, cfg.DisableBatchVerify)
	}
}

// TestBindNodeFlagsHelpUnchanged compares the help text with the flags as
// the commands declared them by hand.
func TestBindNodeFlagsHelpUnchanged(t *testing.T) {
	usage := func(fs *flag.FlagSet) string {
		var b strings.Builder
		fs.SetOutput(&b)
		fs.PrintDefaults()
		return b.String()
	}
	bound := flag.NewFlagSet("bound", flag.ContinueOnError)
	BindNodeFlags(bound, &node.Config{})
	manual := flag.NewFlagSet("manual", flag.ContinueOnError)
	manual.Int("batch-size", 16, "max records coalesced per proposal (1 = no batching)")
	manual.Duration("batch-delay", 2*time.Millisecond, "max wait before a partial batch is flushed")
	manual.Int("verify-cache", 0, "verified-signature cache entries (0 = default 4096, negative = off)")
	manual.Bool("batch-verify", true, "verify batched proposals' record signatures in one multi-scalar pass")
	manual.Duration("trace-slow", 0, "log records whose ingest-to-execute latency meets this threshold (0 = off)")
	manual.Int("trace-ring", 0, "completed lifecycle traces retained for /tracez (0 = default 256)")
	if got, want := usage(bound), usage(manual); got != want {
		t.Errorf("help text changed:\n%s\nwant:\n%s", got, want)
	}
}
