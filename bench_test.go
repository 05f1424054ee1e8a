// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V). Each benchmark runs the corresponding experiment and reports the
// headline values as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The absolute numbers differ from the
// paper's 800 MHz ARM testbed (see DESIGN.md §1 for the substitutions); the
// reported ratios and shapes are the reproduction targets, recorded against
// the paper in EXPERIMENTS.md. cmd/zc-experiments prints the same data as
// paper-style tables with larger run budgets.
package zugchain_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/experiments"
	"zugchain/internal/metrics"
	"zugchain/internal/netsim"
	"zugchain/internal/node"
	"zugchain/internal/testbed"
	"zugchain/internal/transport"
)

// benchOptions keeps benchmark runtime moderate; zc-experiments uses
// longer runs.
func benchOptions() experiments.Options {
	return experiments.Options{Cycles: 60, TimeScale: 8, Seed: 1}
}

// reportComparison publishes the ZugChain-vs-baseline ratios the paper
// reports: network (≈4x), latency (1.1–4.9x), CPU (baseline ≈3–4x), memory
// (≈1.6–1.8x).
func reportComparison(b *testing.B, rows []experiments.ComparisonRow) {
	b.Helper()
	if len(rows) == 0 {
		b.Fatal("no rows")
	}
	var net, lat, cpu, mem float64
	for _, r := range rows {
		net += r.NetRatio
		lat += r.LatRatio
		cpu += r.CPURatio
		mem += r.HeapRatio
	}
	n := float64(len(rows))
	b.ReportMetric(net/n, "net-ratio")
	b.ReportMetric(lat/n, "lat-ratio")
	b.ReportMetric(cpu/n, "cpu-ratio")
	b.ReportMetric(mem/n, "mem-ratio")
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.ZugChain.Latency.Median.Microseconds()), "zc-lat-us")
}

// BenchmarkFig6BusCycles reproduces Fig 6 (left): network utilization and
// latency for bus cycles 32–256 ms at 1 kB payloads, ZugChain vs baseline.
func BenchmarkFig6BusCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6BusCycles(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, rows)
	}
}

// BenchmarkFig6Payloads reproduces Fig 6 (right): payload sizes 32 B – 8 kB
// at the 64 ms bus cycle.
func BenchmarkFig6Payloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6Payloads(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, rows)
	}
}

// BenchmarkFig7BusCycles reproduces Fig 7 (left): the CPU and memory
// proxies over the bus-cycle sweep.
func BenchmarkFig7BusCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7BusCycles(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, rows)
	}
}

// BenchmarkFig7Payloads reproduces Fig 7 (right): resources over the
// payload sweep.
func BenchmarkFig7Payloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7Payloads(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, rows)
	}
}

// BenchmarkFig8ViewChange reproduces Fig 8: request latency through a view
// change for both systems, at real time scale (soft+hard 250 ms each for
// ZugChain, one-shot 500 ms for the baseline).
func BenchmarkFig8ViewChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := experiments.Options{Cycles: 120, TimeScale: 1, Seed: 1}
		zc, err := experiments.Fig8(testbed.ZugChain, opt)
		if err != nil {
			b.Fatal(err)
		}
		bl, err := experiments.Fig8(testbed.Baseline, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(zc.RecoveredAfter.Milliseconds()), "zc-recover-ms")
		b.ReportMetric(float64(bl.RecoveredAfter.Milliseconds()), "bl-recover-ms")
		b.ReportMetric(float64(zc.WorstLatency.Milliseconds()), "zc-worst-ms")
		b.ReportMetric(float64(bl.WorstLatency.Milliseconds()), "bl-worst-ms")
	}
}

// BenchmarkTableIIExport reproduces Table II: read/delete/verify latency
// exporting 500–16,000 blocks over the LTE-shaped uplink. The benchmark
// sweeps a reduced block range; cmd/zc-experiments runs the full table.
func BenchmarkTableIIExport(b *testing.B) {
	counts := []int{500, 1000, 2000}
	for _, count := range counts {
		b.Run(fmt.Sprintf("blocks=%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.TableII(experiments.TableIIOptions{
					BlockCounts: []int{count},
					Link:        netsim.LTE,
				})
				if err != nil {
					b.Fatal(err)
				}
				r := rows[0]
				b.ReportMetric(r.Read.Seconds(), "read-s")
				b.ReportMetric(r.Delete.Seconds(), "delete-s")
				b.ReportMetric(r.Verify.Seconds(), "verify-s")
			}
		})
	}
}

// BenchmarkFig9Fabricated reproduces Fig 9 (fabricated requests): a faulty
// backup injects fabricated requests in 25/75/100 % of cycles; latency, CPU
// and memory inflate but stay bounded by the open-request limit.
func BenchmarkFig9Fabricated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Label {
			case "fabricate 100%":
				b.ReportMetric(r.LatPct, "lat-pct-100")
				b.ReportMetric(r.CPUPct, "cpu-pct-100")
			case "fabricate 25%":
				b.ReportMetric(r.LatPct, "lat-pct-25")
			}
		}
	}
}

// BenchmarkFig9DelayedPrimary reproduces Fig 9 (delayed preprepares): the
// primary delays proposals past the soft timeout; latency rises while
// network utilization drops.
func BenchmarkFig9DelayedPrimary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := benchOptions()
		clean, err := testbed.Run(testbed.Scenario{
			BusCycle: 64 * time.Millisecond, PayloadSize: 1024,
			Cycles: opt.Cycles, TimeScale: opt.TimeScale, Seed: opt.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		delayed, err := testbed.Run(testbed.Scenario{
			BusCycle: 64 * time.Millisecond, PayloadSize: 1024,
			Cycles: opt.Cycles, TimeScale: opt.TimeScale, Seed: opt.Seed,
			PrimaryDelay: 300 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(clean.Latency.Median.Microseconds()), "clean-lat-us")
		b.ReportMetric(float64(delayed.Latency.Median.Microseconds()), "delayed-lat-us")
	}
}

// BenchmarkJRURequirements checks the §V-B requirement: storage within
// 500 ms of arrival at 15.6 events/s, including block persistence.
func BenchmarkJRURequirements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		check, err := experiments.RunJRUCheck(b.TempDir(), experiments.Options{Cycles: 60, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !check.Pass {
			b.Fatalf("JRU requirement violated: %+v", check)
		}
		b.ReportMetric(float64(check.OrderLatency.Microseconds()), "order-lat-us")
		b.ReportMetric(float64(check.DiskWrite.Microseconds()), "disk-write-us")
	}
}

// BenchmarkAblationCheckpointInterval sweeps the checkpoint interval — the
// design choice DESIGN.md §2(4) calls out (a block per slot, a checkpoint
// every K slots).
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationCheckpointInterval(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		first, last := rows[0].Result, rows[len(rows)-1].Result
		b.ReportMetric(float64(first.Blocks), "blocks-ckpt1")
		b.ReportMetric(float64(last.Blocks), "blocks-ckpt50")
		b.ReportMetric(first.NetBytesPerNodePerSec, "net-ckpt1")
		b.ReportMetric(last.NetBytesPerNodePerSec, "net-ckpt50")
	}
}

// BenchmarkAblationSoftTimeout shows the soft timeout bounding a lazy
// primary's damage: measured latency tracks the configured soft timeout.
func BenchmarkAblationSoftTimeout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSoftTimeout(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			name := strings.TrimPrefix(r.Label, "soft=") + "-maxlat-ms"
			b.ReportMetric(float64(r.Result.Latency.Max.Milliseconds()), name)
		}
	}
}

// buildBenchBlocks constructs n linked single-entry blocks outside the timed
// region, so the store benchmarks measure persistence alone. Each entry
// carries a payload and a signature of the given sizes.
func buildBenchBlocks(n, payloadSize, sigSize int) []*blockchain.Block {
	bd := blockchain.NewBuilder(blockchain.Genesis(), 1)
	payload, sig := make([]byte, payloadSize), make([]byte, sigSize)
	blocks := make([]*blockchain.Block, 0, n)
	for seq := uint64(1); len(blocks) < n; seq++ {
		if blk := bd.Add(blockchain.Entry{Seq: seq, Origin: 0, Payload: payload, Sig: sig}); blk != nil {
			blocks = append(blocks, blk)
		}
	}
	return blocks
}

// benchAppendEach appends blocks one at a time to a disk store, each its
// own durable group.
func benchAppendEach(b *testing.B, blocks []*blockchain.Block) {
	s, err := blockchain.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for _, blk := range blocks {
		if err := s.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
	reportBlocksPerSec(b, len(blocks))
}

// BenchmarkStoreAppend compares the persistence modes of blockchain.Store:
// the in-memory map, fsync'd single appends (one durable group per block),
// and group commit via AppendBatch (64 blocks per fsync'd directory sync).
// The group-commit ratio is what the ordering pipeline's state transfers
// and catch-up batches gain. disk-record appends the block a replica seals
// per executed slot: one 1 KB record with its 64-byte signature.
func BenchmarkStoreAppend(b *testing.B) {
	const groupSize = 64
	b.Run("memory", func(b *testing.B) {
		blocks := buildBenchBlocks(b.N, 256, 0)
		s, err := blockchain.NewStore("")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for _, blk := range blocks {
			if err := s.Append(blk); err != nil {
				b.Fatal(err)
			}
		}
		reportBlocksPerSec(b, len(blocks))
	})
	b.Run("disk-single", func(b *testing.B) {
		benchAppendEach(b, buildBenchBlocks(b.N, 256, 0))
	})
	b.Run("disk-record", func(b *testing.B) {
		benchAppendEach(b, buildBenchBlocks(b.N, 1024, 64))
	})
	b.Run(fmt.Sprintf("disk-group-%d", groupSize), func(b *testing.B) {
		blocks := buildBenchBlocks(b.N, 256, 0)
		s, err := blockchain.NewStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ResetTimer()
		for lo := 0; lo < len(blocks); lo += groupSize {
			hi := lo + groupSize
			if hi > len(blocks) {
				hi = len(blocks)
			}
			if err := s.AppendBatch(blocks[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
		reportBlocksPerSec(b, len(blocks))
	})
}

func reportBlocksPerSec(b *testing.B, n int) {
	b.Helper()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(n)/secs, "blocks/s")
	}
}

// BenchmarkOrderingThroughput measures end-to-end ordering throughput of a
// real four-node cluster (full PBFT, Ed25519, in-process transport) as the
// primary's request batching is swept over 1/8/64 records per proposal.
// batch=1 is the pre-batching hot path. Regenerate with
//
//	go test -run '^$' -bench 'OrderingThroughput$' -benchtime 3x .
func BenchmarkOrderingThroughput(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			net, trs := inprocTransports()
			defer net.Close()
			// A window with enough concurrency to fill batches and the PBFT
			// watermark, little enough that tail latency stays far below
			// the timeouts.
			benchOrdering(b, batch, trs, 64)
		})
	}
}

// BenchmarkOrderingThroughputTCP is the same four-node ordering benchmark
// over real TCP loopback connections, exercising the transport's outbound
// write path (framing, syscalls, per-peer fan-out) instead of the in-process
// network. Regenerate with
//
//	go test -run '^$' -bench 'OrderingThroughputTCP' -benchtime 3x .
func BenchmarkOrderingThroughputTCP(b *testing.B) {
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			ids := []crypto.NodeID{0, 1, 2, 3}
			tcps := make([]*transport.TCP, len(ids))
			addrs := make(map[crypto.NodeID]string)
			for i, id := range ids {
				tr, err := transport.NewTCP(id, "127.0.0.1:0", nil)
				if err != nil {
					b.Fatal(err)
				}
				defer tr.Close()
				tcps[i] = tr
				addrs[id] = tr.Addr()
			}
			trs := make(map[crypto.NodeID]transport.Transport)
			for i, id := range ids {
				tcps[i].SetPeers(addrs)
				trs[id] = tcps[i]
			}
			benchOrdering(b, batch, trs, 256)
		})
	}
}

// benchOrdering orders 512 records per iteration through an orderingLoad
// and reports records/s, the primary's batch flushes, and the bytes every
// node put on the wire per record where the transport counts them (the
// in-process network does; TCP does not).
func benchOrdering(b *testing.B, maxBatch int, trs map[crypto.NodeID]transport.Transport, window uint64) {
	const recordsPerIter = 512
	l := newOrderingLoad(b, trs, window, func(c *node.Config) { c.MaxBatch = maxBatch })
	defer l.stop()

	sentBytes := func() uint64 {
		var sum uint64
		for _, tr := range trs {
			if c, ok := tr.(interface{ Counters() *metrics.Counters }); ok {
				sum += c.Counters().BytesSent.Load()
			}
		}
		return sum
	}

	total := uint64(0)
	sent0 := sentBytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total += recordsPerIter
		if err := l.orderUpTo(total); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)/secs, "records/s")
	}
	b.ReportMetric(float64(l.nodes[0].FrontEnd().Batches().Flushes.Load()), "flushes")
	if sent := sentBytes() - sent0; sent > 0 {
		b.ReportMetric(float64(sent)/float64(total), "net-B/record")
	}
}
