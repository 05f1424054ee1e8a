// Command zugchain runs one ZugChain replica over TCP: the full node
// pipeline of Fig 3 (bus reader → communication layer → PBFT → blockchain →
// export server) against real network peers.
//
// Because this repository has no proprietary MVB hardware access, each
// replica drives a deterministic simulated bus: with a shared -seed all
// replicas observe the identical signal stream, exactly as nodes on one
// physical bus would (DESIGN.md §1 documents the substitution). Cycle
// misalignment between processes is absorbed by the payload-based
// duplicate filtering, like reordered bus delivery.
//
// Usage (4 replicas on one machine):
//
//	zc-keygen -replicas 4 -datacenters 1 -out keys.json
//	zugchain -keyring keys.json -id 0 -listen :7100 \
//	  -peers 0=localhost:7100,1=localhost:7101,2=localhost:7102,3=localhost:7103 &
//	... (repeat for ids 1..3)
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

	"zugchain/internal/cli"
	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/keyring"
	"zugchain/internal/mvb"
	"zugchain/internal/node"
	"zugchain/internal/obsv"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zugchain:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		keyringPath = flag.String("keyring", "keys.json", "cluster keyring (zc-keygen)")
		idFlag      = flag.Uint("id", 0, "this replica's id")
		listen      = flag.String("listen", ":7100", "consensus listen address")
		peersFlag   = flag.String("peers", "", "comma-separated id=host:port for all replicas")
		dataDir     = flag.String("datadir", "", "blockchain directory (empty = memory)")
		walDir      = flag.String("wal-dir", "", "consensus WAL directory (empty = <datadir>/wal)")
		noWAL       = flag.Bool("no-wal", false, "disable the consensus WAL (no crash-restart protocol recovery)")
		ckptEvery   = flag.Uint64("checkpoint-interval", 10, "agreement slots per checkpoint (blocks are sealed per slot)")
		busCycle    = flag.Duration("bus-cycle", 64*time.Millisecond, "simulated MVB cycle time")
		payload     = flag.Int("payload", 0, "pad records to this size (0 = raw signals)")
		seed        = flag.Int64("seed", 1, "bus workload seed (identical on all replicas)")
		dropRate    = flag.Float64("bus-drop", 0, "simulated bus frame drop probability")
		bitFlipRate = flag.Float64("bus-bitflip", 0, "simulated bus bit-flip probability")
		statsEvery  = flag.Duration("stats", 10*time.Second, "stats print interval (0 = off)")
		sendQueue   = flag.Int("send-queue", transport.DefaultSendQueue, "per-peer outbound queue capacity (oldest dropped when full)")
		metricsAddr = flag.String("metrics-addr", "", "observability HTTP address (/metrics /statusz /tracez /eventz /debug/pprof; empty = off)")
	)
	var cfg node.Config
	cli.BindNodeFlags(flag.CommandLine, &cfg)
	flag.Parse()

	kr, err := keyring.Load(*keyringPath)
	if err != nil {
		return err
	}
	reg, err := kr.Registry()
	if err != nil {
		return err
	}
	id := crypto.NodeID(*idFlag)
	kp, err := kr.KeyPair(id)
	if err != nil {
		return err
	}
	peers, err := cli.ParsePeers(*peersFlag)
	if err != nil {
		return err
	}

	tr, err := transport.NewTCP(id, *listen, peers)
	if err != nil {
		return err
	}
	tr.SendQueue = *sendQueue
	defer tr.Close()

	cfg.ID = id
	cfg.Replicas = kr.ReplicaIDs()
	cfg.CheckpointInterval = *ckptEvery
	cfg.DataDir, cfg.WALDir, cfg.DisableWAL = *dataDir, *walDir, *noWAL
	cfg.DataCenters = kr.DataCenterIDs()
	n, err := node.New(cfg, kp, reg, tr, clock.Real{})
	if err != nil {
		return err
	}
	if rec := n.Recovery(); rec.WALRecords > 0 || rec.StoreReport.Loaded > 0 {
		log.Printf("recovered: %d blocks, %d WAL records, view=%d seq=%d, %d dedup entries restored",
			rec.StoreReport.Loaded, rec.WALRecords, rec.RestoredView, rec.RestoredSeq, rec.WindowRestored)
		if rec.StoreReport.Truncated() {
			log.Printf("store recovery dropped a damaged tail: %d bytes", rec.StoreReport.TruncatedBytes)
		}
		if rec.WALReport.Truncated() {
			log.Printf("WAL recovery dropped a damaged tail: %d bytes", rec.WALReport.TruncatedBytes)
		}
		if rec.PendingTransfer > 0 {
			log.Printf("stable checkpoint ahead of local chain: state transfer to block %d scheduled",
				rec.PendingTransfer)
		}
	}
	n.Start()
	defer n.Stop()

	if *metricsAddr != "" {
		msrv, err := obsv.Serve(*metricsAddr, n.Obs())
		if err != nil {
			return err
		}
		defer msrv.Close()
		log.Printf("observability on http://%s (/metrics /statusz /tracez /eventz /debug/pprof)", msrv.Addr())
	}

	// Deterministic simulated bus: same seed => same signal stream on all
	// replicas.
	genCfg := signal.DefaultGeneratorConfig()
	genCfg.Seed = *seed
	genCfg.PayloadSize = *payload
	bus := mvb.NewBus(mvb.Config{CycleTime: *busCycle})
	bus.Attach(mvb.NewSignalDevice(signal.NewGenerator(genCfg)))
	reader := bus.NewReader(mvb.FaultConfig{
		DropRate:    *dropRate,
		BitFlipRate: *bitFlipRate,
	}, *seed+int64(id))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go bus.Run(ctx, clock.Real{})
	n.RunBus(ctx, reader)

	log.Printf("replica %v listening on %s, %d peers, bus cycle %v",
		id, tr.Addr(), len(peers), *busCycle)

	// The shared reporter replaces this command's hand-rolled ticker: one
	// formatter over the registered metric families (0 = off preserved).
	reporter := obsv.NewReporter(*statsEvery, func() string { return obsv.Summary(n.Obs()) }, nil)
	defer reporter.Stop()

	sigCh := make(chan os.Signal, 1)
	ossignal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	<-sigCh
	log.Printf("shutting down")
	if events := n.Obs().Journal.Events(); len(events) > 0 {
		log.Printf("consensus event journal (%d events):", len(events))
		for _, e := range events {
			log.Printf("  %s", e)
		}
	}
	return nil
}
