// Package cli holds small helpers shared by the command-line tools.
package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"zugchain/internal/crypto"
	"zugchain/internal/node"
)

// ParsePeers parses the -peers/-replicas flag format: a comma-separated
// list of id=host:port entries, e.g.
//
//	0=localhost:7100,1=localhost:7101
func ParsePeers(s string) (map[crypto.NodeID]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty peer list")
	}
	peers := make(map[crypto.NodeID]string)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad peer %q, want id=host:port", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", kv[0], err)
		}
		if _, dup := peers[crypto.NodeID(id)]; dup {
			return nil, fmt.Errorf("duplicate peer id %d", id)
		}
		peers[crypto.NodeID(id)] = kv[1]
	}
	return peers, nil
}

// BindNodeFlags declares on fs the node flags every replica-running command
// shares, each writing straight into cfg: -batch-size, -batch-delay,
// -verify-cache, -batch-verify, -trace-slow and -trace-ring.
func BindNodeFlags(fs *flag.FlagSet, cfg *node.Config) {
	fs.IntVar(&cfg.MaxBatch, "batch-size", 16, "max records coalesced per proposal (1 = no batching)")
	fs.DurationVar(&cfg.MaxBatchDelay, "batch-delay", 2*time.Millisecond, "max wait before a partial batch is flushed")
	fs.IntVar(&cfg.VerifyCacheSize, "verify-cache", 0, "verified-signature cache entries (0 = default 4096, negative = off)")
	fs.Var(negatedBool{&cfg.DisableBatchVerify}, "batch-verify", "verify batched proposals' record signatures in one multi-scalar pass")
	fs.DurationVar(&cfg.TraceSlow, "trace-slow", 0, "log records whose ingest-to-execute latency meets this threshold (0 = off)")
	fs.IntVar(&cfg.TraceRing, "trace-ring", 0, "completed lifecycle traces retained for /tracez (0 = default 256)")
}

// negatedBool is a boolean flag stored inverted, so a "-batch-verify" flag
// that defaults to true can set a Disable field that defaults to false.
type negatedBool struct{ disable *bool }

func (b negatedBool) String() string { return strconv.FormatBool(b.disable != nil && !*b.disable) }

func (b negatedBool) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return err
	}
	*b.disable = !v
	return nil
}

func (b negatedBool) IsBoolFlag() bool { return true }
