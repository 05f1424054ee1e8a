// Command zc-datacenter runs a railway company's export endpoint: it
// periodically pulls new blocks from the on-train replicas (Fig 4), verifies
// them against 2f+1-signed stable checkpoints, archives them durably, and
// authorizes pruning with signed deletes.
//
// Usage:
//
//	zc-datacenter -keyring keys.json -id 0 -archive ./archive \
//	  -replicas 0=localhost:7100,1=localhost:7101,2=localhost:7102,3=localhost:7103 \
//	  -interval 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	ossignal "os/signal"
	"syscall"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/cli"
	"zugchain/internal/crypto"
	"zugchain/internal/export"
	"zugchain/internal/keyring"
	"zugchain/internal/metrics"
	"zugchain/internal/netsim"
	"zugchain/internal/obsv"
	"zugchain/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zc-datacenter:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		keyringPath  = flag.String("keyring", "keys.json", "cluster keyring (zc-keygen)")
		idFlag       = flag.Uint("id", 0, "data center index (0-based)")
		replicasFlag = flag.String("replicas", "", "comma-separated id=host:port for all replicas")
		archiveDir   = flag.String("archive", "archive", "durable archive directory")
		interval     = flag.Duration("interval", 30*time.Second, "export period")
		shapeLTE     = flag.Bool("lte", false, "shape the uplink to the paper's LTE profile")
		deleteAcks   = flag.Int("delete-acks", 3, "replica acks required per export round")
		sendQueue    = flag.Int("send-queue", transport.DefaultSendQueue, "per-replica outbound queue capacity (oldest dropped when full)")
		flushEvery   = flag.Duration("flush-interval", 0, "linger before flushing partial outbound write batches (0 = flush when idle)")
		metricsAddr  = flag.String("metrics-addr", "", "observability HTTP address (/metrics /statusz /debug/pprof; empty = off)")
		statsEvery   = flag.Duration("stats", 0, "stats print interval (0 = off)")
	)
	flag.Parse()

	kr, err := keyring.Load(*keyringPath)
	if err != nil {
		return err
	}
	reg, err := kr.Registry()
	if err != nil {
		return err
	}
	dcID := crypto.DataCenterIDBase + crypto.NodeID(*idFlag)
	kp, err := kr.KeyPair(dcID)
	if err != nil {
		return err
	}
	// Count the export path's checkpoint/block verifications like a node
	// counts its own: the view shares the key set but owns its counters.
	cc := &metrics.CryptoCounters{}
	reg = reg.WithCounters(cc)
	replicaAddrs, err := cli.ParsePeers(*replicasFlag)
	if err != nil {
		return err
	}

	tcp, err := transport.NewTCP(dcID, "" /* dial only */, replicaAddrs)
	if err != nil {
		return err
	}
	tcp.SendQueue = *sendQueue
	tcp.FlushInterval = *flushEvery
	var tr transport.Transport = tcp
	if *shapeLTE {
		tr = netsim.NewShaped(tcp, netsim.LTE)
	}
	defer tr.Close()

	archive, err := blockchain.NewStore(*archiveDir)
	if err != nil {
		return err
	}
	dc := export.NewDataCenter(export.DataCenterConfig{
		ID:       dcID,
		Replicas: kr.ReplicaIDs(),
	}, kp, reg, archive, tr)

	// The data center has no consensus pipeline, so its observer runs
	// without the lifecycle tracer: archive gauges, net, crypto, and
	// group-commit counters are the interesting families here.
	obs := obsv.NewObserver(obsv.Options{DisableTrace: true})
	obs.Registry.Register("net", tcp.NetCounters().Metrics)
	obs.Registry.Register("crypto", cc.Metrics)
	obs.Registry.Register("store", archive.GroupCommits().Metrics)
	obs.Registry.Register("chain", func() []metrics.Metric {
		return []metrics.Metric{
			metrics.Gauge("zugchain_chain_height", "Archive head index", float64(archive.HeadIndex())),
			metrics.Gauge("zugchain_chain_base", "Oldest retained archive block", float64(archive.Base())),
		}
	})
	if *metricsAddr != "" {
		msrv, err := obsv.Serve(*metricsAddr, obs)
		if err != nil {
			return err
		}
		defer msrv.Close()
		log.Printf("observability on http://%s", msrv.Addr())
	}
	reporter := obsv.NewReporter(*statsEvery, func() string { return obsv.Summary(obs) }, nil)
	defer reporter.Stop()

	log.Printf("data center %v exporting every %v, archive at %s (height %d)",
		dcID, *interval, *archiveDir, archive.HeadIndex())

	sigCh := make(chan os.Signal, 1)
	ossignal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	for {
		select {
		case <-sigCh:
			log.Printf("shutting down at archive height %d", archive.HeadIndex())
			return nil
		case <-ticker.C:
			if err := exportOnce(dc, archive, *deleteAcks); err != nil {
				log.Printf("export round failed: %v", err)
			}
		}
	}
}

func exportOnce(dc *export.DataCenter, archive *blockchain.Store, minAcks int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	res, err := dc.Read(ctx)
	if err != nil {
		return err
	}
	if res.NewBlocks == 0 {
		log.Printf("up to date at block %d", res.BlockIndex)
		return nil
	}
	if err := archive.VerifyChain(); err != nil {
		return fmt.Errorf("archive verification after export: %w", err)
	}
	dc.SendDelete(res.BlockIndex, res.BlockHash)
	if err := dc.WaitDeleteAcks(ctx, res.BlockIndex, minAcks); err != nil {
		return err
	}
	log.Printf("exported %d blocks through %d (read %v, verify %v); replicas pruned",
		res.NewBlocks, res.BlockIndex,
		res.ReadDuration.Round(time.Millisecond),
		res.VerifyDuration.Round(time.Millisecond))
	return nil
}
