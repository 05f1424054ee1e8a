// Command zc-sim runs a self-contained ZugChain deployment in one process:
// four replicas on a simulated train Ethernet, one simulated MVB with the
// ATP drive generator, optional bus faults, and an optional data center that
// periodically exports and prunes. It is the quickest way to watch the
// whole system work.
//
// Usage:
//
//	zc-sim -duration 30s -bus-cycle 64ms -export 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/cli"
	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/export"
	"zugchain/internal/mvb"
	"zugchain/internal/node"
	"zugchain/internal/obsv"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zc-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		duration   = flag.Duration("duration", 30*time.Second, "how long to run")
		busCycle   = flag.Duration("bus-cycle", 64*time.Millisecond, "MVB cycle time")
		payload    = flag.Int("payload", 0, "pad records to this size")
		exportEach = flag.Duration("export", 10*time.Second, "export period (0 = no data center)")
		busDrop    = flag.Float64("bus-drop", 0.05, "per-node bus frame drop probability")
		busFlip    = flag.Float64("bus-bitflip", 0.01, "per-node bus bit-flip probability")
		seed       = flag.Int64("seed", 1, "workload seed")
		sendQueue  = flag.Int("send-queue", 4096, "per-endpoint inbox capacity (messages dropped when full)")

		dataRoot     = flag.String("datadir", "", "per-replica data root (empty = memory, no WAL)")
		netDrop      = flag.Float64("net-drop", 0, "consensus transport drop probability")
		netDelay     = flag.Float64("net-delay", 0, "consensus transport delay probability")
		netDelayMax  = flag.Duration("net-delay-max", 5*time.Millisecond, "max injected transport delay")
		netDup       = flag.Float64("net-dup", 0, "consensus transport duplicate probability")
		killNode     = flag.Int("kill", -1, "replica to crash mid-run (-1 = none)")
		killAfter    = flag.Duration("kill-after", 10*time.Second, "when to crash the -kill replica")
		restartAfter = flag.Duration("restart-after", 20*time.Second, "when to restart it from its data dir (0 = never)")
		statsEvery   = flag.Duration("stats", 5*time.Second, "stats print interval (0 = off)")
		metricsAddr  = flag.String("metrics-addr", "", "observability HTTP address serving replica 0 (empty = off)")
	)
	var nodeCfg node.Config
	cli.BindNodeFlags(flag.CommandLine, &nodeCfg)
	flag.Parse()

	ids := []crypto.NodeID{0, 1, 2, 3}
	kps := make(map[crypto.NodeID]*crypto.KeyPair)
	var pairs []*crypto.KeyPair
	for _, id := range ids {
		kp := crypto.MustGenerateKeyPair(id)
		kps[id] = kp
		pairs = append(pairs, kp)
	}
	dcID := crypto.DataCenterIDBase
	dcKP := crypto.MustGenerateKeyPair(dcID)
	pairs = append(pairs, dcKP)
	reg := crypto.NewRegistry(pairs...)

	net := transport.NewNetwork(transport.WithSeed(*seed), transport.WithInboxSize(*sendQueue))
	defer net.Close()

	genCfg := signal.DefaultGeneratorConfig()
	genCfg.Seed = *seed
	genCfg.PayloadSize = *payload
	bus := mvb.NewBus(mvb.Config{CycleTime: *busCycle})
	bus.Attach(mvb.NewSignalDevice(signal.NewGenerator(genCfg)))

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	faults := transport.FaultConfig{
		DropRate:      *netDrop,
		DelayRate:     *netDelay,
		MaxDelay:      *netDelayMax,
		DuplicateRate: *netDup,
	}
	chaosNet := *netDrop > 0 || *netDelay > 0 || *netDup > 0

	var nodeMu sync.Mutex // guards nodes against the reporter goroutine
	nodes := make([]*node.Node, len(ids))
	incarnation := make([]int64, len(ids))
	var msrv *obsv.Server
	defer func() {
		if msrv != nil {
			_ = msrv.Close()
		}
	}()
	startNode := func(i int) error {
		id := ids[i]
		var dir string
		if *dataRoot != "" {
			dir = filepath.Join(*dataRoot, fmt.Sprintf("replica-%d", i))
		}
		tr := transport.Transport(net.Endpoint(id))
		if chaosNet {
			tr = transport.NewFaulty(tr, ids, faults, *seed+int64(id)+incarnation[i]*100)
		}
		cfg := nodeCfg
		cfg.ID, cfg.Replicas = id, ids
		cfg.DataCenters, cfg.DeleteQuorum = []crypto.NodeID{dcID}, 1
		cfg.DataDir = dir
		n, err := node.New(cfg, kps[id], reg, tr, clock.Real{})
		if err != nil {
			return err
		}
		if rec := n.Recovery(); rec.WALRecords > 0 || rec.StoreReport.Loaded > 0 {
			log.Printf("replica %d recovered: %d blocks, %d WAL records, view=%d seq=%d",
				i, rec.StoreReport.Loaded, rec.WALRecords, rec.RestoredView, rec.RestoredSeq)
		}
		reader := bus.NewReader(mvb.FaultConfig{
			DropRate:    *busDrop,
			BitFlipRate: *busFlip,
		}, *seed+int64(id)+incarnation[i]*1000)
		incarnation[i]++
		n.Start()
		n.RunBus(ctx, reader)
		nodeMu.Lock()
		nodes[i] = n
		nodeMu.Unlock()
		if i == 0 && *metricsAddr != "" {
			// The HTTP endpoint serves replica 0's observer; a restart
			// creates a fresh node (and observer), so rebind to it.
			if msrv != nil {
				_ = msrv.Close()
			}
			srv, err := obsv.Serve(*metricsAddr, n.Obs())
			if err != nil {
				return err
			}
			msrv = srv
			log.Printf("observability on http://%s (replica 0)", srv.Addr())
		}
		return nil
	}
	for i := range ids {
		if err := startNode(i); err != nil {
			return err
		}
	}
	defer func() {
		cancel()
		for _, n := range nodes {
			if n != nil {
				n.Stop()
			}
		}
	}()
	go bus.Run(ctx, clock.Real{})

	var dc *export.DataCenter
	if *exportEach > 0 {
		archive, err := blockchain.NewStore("")
		if err != nil {
			return err
		}
		dcMux := transport.NewMux(net.Endpoint(dcID))
		dc = export.NewDataCenter(export.DataCenterConfig{
			ID:          dcID,
			Replicas:    ids,
			ReadTimeout: 10 * time.Second,
		}, dcKP, reg, archive, dcMux.Channel(0x40, 0x4f))
	}

	log.Printf("running %d replicas, bus cycle %v, drop %.0f%%, bit flips %.1f%%",
		len(nodes), *busCycle, *busDrop*100, *busFlip*100)

	// The shared reporter replaces the hand-rolled 5s ticker: one formatter
	// over replica 0's registered families (chain, latency, net, crypto,
	// WAL), 0 = off preserved.
	reporter := obsv.NewReporter(*statsEvery, func() string {
		nodeMu.Lock()
		n := nodes[0]
		nodeMu.Unlock()
		if n == nil {
			return ""
		}
		return obsv.Summary(n.Obs())
	}, nil)
	defer reporter.Stop()

	var exportCh <-chan time.Time
	if dc != nil {
		exportTicker := time.NewTicker(*exportEach)
		defer exportTicker.Stop()
		exportCh = exportTicker.C
	}
	var killCh, restartCh <-chan time.Time
	if *killNode >= 0 && *killNode < len(ids) {
		killTimer := time.NewTimer(*killAfter)
		defer killTimer.Stop()
		killCh = killTimer.C
		if *restartAfter > 0 {
			restartTimer := time.NewTimer(*restartAfter)
			defer restartTimer.Stop()
			restartCh = restartTimer.C
		}
	}

	for {
		select {
		case <-ctx.Done():
			printSummary(nodes, dc)
			return nil
		case <-killCh:
			i := *killNode
			log.Printf("replica %d: crashing", i)
			nodeMu.Lock()
			n := nodes[i]
			nodes[i] = nil
			nodeMu.Unlock()
			n.Stop()
		case <-restartCh:
			i := *killNode
			nodeMu.Lock()
			running := nodes[i] != nil
			nodeMu.Unlock()
			if running {
				continue
			}
			log.Printf("replica %d: restarting", i)
			if err := startNode(i); err != nil {
				return fmt.Errorf("restart replica %d: %w", i, err)
			}
		case <-exportCh:
			go runExport(ctx, dc)
		}
	}
}

func runExport(ctx context.Context, dc *export.DataCenter) {
	res, err := dc.Read(ctx)
	if err != nil {
		log.Printf("export: %v", err)
		return
	}
	if res.NewBlocks == 0 {
		return
	}
	dc.SendDelete(res.BlockIndex, res.BlockHash)
	ackCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := dc.WaitDeleteAcks(ackCtx, res.BlockIndex, 3); err != nil {
		log.Printf("export acks: %v", err)
		return
	}
	log.Printf("exported %d blocks through %d; replicas pruned", res.NewBlocks, res.BlockIndex)
}

func printSummary(nodes []*node.Node, dc *export.DataCenter) {
	fmt.Println("\n=== summary ===")
	for i, n := range nodes {
		if n == nil {
			fmt.Printf("replica %d: down\n", i)
			continue
		}
		store := n.Store()
		status := "chain OK"
		if err := store.VerifyChain(); err != nil {
			status = "CHAIN BROKEN: " + err.Error()
		}
		fmt.Printf("replica %d: height=%d base=%d ordered=%d %s\n",
			i, store.HeadIndex(), store.Base(),
			n.FrontEnd().Counters().Requests.Load(), status)
	}
	for i, n := range nodes {
		if n == nil {
			continue
		}
		events := n.Obs().Journal.Events()
		if len(events) == 0 {
			continue
		}
		fmt.Printf("replica %d consensus events (%d):\n", i, len(events))
		for _, e := range events {
			fmt.Printf("  %s\n", e)
		}
	}
	if dc != nil {
		status := "archive OK"
		if err := dc.Archive().VerifyChain(); err != nil {
			status = "ARCHIVE BROKEN: " + err.Error()
		}
		fmt.Printf("data center: archived through block %d, %s\n", dc.LastExported(), status)
	}
}
