package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/obsv"
)

// runOpts are one invocation's settings.
type runOpts struct {
	seed    int64
	seconds time.Duration
	traced  bool
	setups  int    // set-ups timed; setup_s is their median
	workDir string // scratch space for DataDirs, under the working directory
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
}

// runTrain times opts.setups cluster set-ups and measures the last one for
// the window.
func runTrain(o runOpts) (*result, error) {
	res := &result{e2e: make(map[string]float64)}
	var setups []float64
	var r *recordRun
	for i := 0; i < o.setups; i++ {
		cfg := clusterConfig{
			dataRoot: filepath.Join(o.workDir, fmt.Sprintf("train-%d", i)),
			traced:   o.traced,
			seed:     o.seed,
		}
		runtime.GC() // leave the previous set-up's garbage out of this one
		t0 := time.Now()
		run, err := newRecordRun(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < o.setups-1 {
			run.close()
			continue
		}
		r = run
	}
	defer r.close()
	if err := r.run(o.seconds, o.traced, res); err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = median(setups)
	return res, nil
}

// run measures the cluster for a window, checks it, and fills res.
func (r *recordRun) run(length time.Duration, traced bool, res *result) error {
	heap := startHeapSampler()
	w, err := r.measure(length)
	peak := heap.close()
	if err != nil {
		return errIncorrect{err}
	}
	if err := r.check(); err != nil {
		return errIncorrect{err}
	}
	lat, attempted, failed := r.latencies()
	res.attempted, res.failed = attempted, failed
	ops := float64(r.recordedIn(w.start, w.end))
	sum := summarize(lat)
	rate := r.rate(w)
	res.e2e["ops_per_s"] = rate
	res.e2e["latency_p50_ms"] = sum.p50
	res.e2e["latency_tail_ms"] = sum.tail
	costs(w.before, w.after, ops, res.e2e)
	secs := w.end.Sub(w.start).Seconds()
	fmt.Printf("train: %d records attempted, %d failed, %.0f recorded in %.2fs; latency n=%d p50=%.2fms p%g=%.2fms max=%.2fms; block to block %.1f/s\n",
		attempted, failed, ops, secs, sum.n, sum.p50, sum.tailPct, sum.tail, sum.maxValue, rate)
	fmt.Printf("  recorded per second %v; cores busy %.2f\n", r.perSecond(w), (w.after.cpu-w.before.cpu).Seconds()/secs)
	if traced {
		res.layers = r.layers(w, ops, peak, sum)
	}
	return nil
}

// errIncorrect marks a failed correctness check, as opposed to a run that
// could not be carried out.
type errIncorrect struct{ error }

// layers builds the per-layer table of a traced recording run.
func (r *recordRun) layers(w window, ops float64, heapPeak uint64, sum latencySummary) map[string]float64 {
	b, a := w.before, w.after
	m := make(map[string]float64)
	sharedLayers(r.c.tap, b, a, ops, heapPeak, m)

	batched := delta(b, a, "zugchain_crypto_batched_sigs_total")
	batchOps := delta(b, a, "zugchain_crypto_batch_ops_total")
	hits := delta(b, a, "zugchain_crypto_cache_hits_total")
	m["crypto.scalar_verifies_per_op"] = ratio(delta(b, a, "zugchain_crypto_scalar_verifies_total"), ops)
	m["crypto.batched_sigs_per_op"] = ratio(batched, ops)
	m["crypto.cache_hit_share"] = ratio(hits, hits+delta(b, a, "zugchain_crypto_cache_misses_total"))
	m["crypto.batch_size"] = ratio(batched, batchOps)
	m["crypto.scalar_verify_us"], m["crypto.batch_verify_us_per_sig"] = cryptoProbe(int(math.Round(ratio(batched, batchOps))))
	m["crypto.pool_queue_peak"] = a.totals["zugchain_pool_queue_peak"]
	m["crypto.pool_task_max_ms"] = a.totals["zugchain_pool_task_max_seconds"] * 1000

	nodes := r.c.nodes
	phases := []obsv.Phase{obsv.PhaseBatch, obsv.PhasePrePrepare, obsv.PhasePrepare, obsv.PhaseCommit, obsv.PhaseExecute, obsv.PhaseFsync}
	for _, p := range phases {
		var q50, q99 []float64
		for _, n := range nodes {
			if n.Obs().Tracer == nil {
				continue
			}
			if s := n.Obs().Tracer.PhaseSnapshot(p); s.Count > 0 {
				q50 = append(q50, float64(s.Quantile(0.5))/1e6)
				q99 = append(q99, float64(s.Quantile(0.99))/1e6)
			}
		}
		m["pbft.phase_p50_ms."+p.String()] = median(q50)
		m["pbft.phase_p99_ms."+p.String()] = median(q99)
	}
	var views, transfers int
	for _, n := range nodes {
		v := 0
		for _, e := range n.Obs().Journal.Events() {
			if e.Kind == obsv.EventNewPrimary && e.View > 0 {
				v++
			}
			if e.Kind == obsv.EventStateTransfer {
				transfers++
			}
		}
		if v > views {
			views = v
		}
	}
	m["pbft.view_changes"] = float64(views)
	m["pbft.state_transfers"] = float64(transfers)

	r.mu.Lock()
	m["pbft.slots_per_block"] = ratio(float64(r.slots), float64(len(r.blockAt)-1))
	records := 0
	for _, b := range r.blockAt {
		records += b.records
	}
	m["blockchain.records_per_block"] = ratio(float64(records), float64(len(r.blockAt)))
	late := summarize(append([]float64(nil), r.lateMs...))
	r.mu.Unlock()

	feedUs := meanUs(r.feedNs.Load(), r.feedN.Load())
	m["mvb.handle_frame_us"] = feedUs
	m["core.on_bus_record_us"] = feedUs - meanUs(r.parseNs.Load(), r.parseN.Load())
	m["signal.records_per_frame"] = 1 // busRecord fails the run otherwise
	m["bench.gen_late_ms"] = late.tail
	flushes := delta(b, a, "zugchain_batch_flushes_total")
	m["core.duplicates_per_op"] = ratio(delta(b, a, "zugchain_core_duplicates_total"), ops)
	m["core.forwards_per_op"] = ratio(float64(a.calls[clsZCRequest]-b.calls[clsZCRequest]), ops)
	m["core.timers_per_op"] = ratio(float64(a.timers-b.timers), ops)
	m["core.records_per_proposal"] = ratio(delta(b, a, "zugchain_batch_records_total"), flushes)
	m["core.delay_flush_share"] = ratio(delta(b, a, "zugchain_batch_delay_flushes_total"), flushes)

	walGroups := delta(b, a, "zugchain_wal_groups_total")
	walRecords := delta(b, a, "zugchain_wal_records_total")
	walBytes := delta(b, a, "zugchain_wal_bytes_total")
	m["wal.fsyncs_per_op"] = ratio(walGroups+delta(b, a, "zugchain_wal_rotations_total"), ops)
	m["wal.records_per_group"] = ratio(walRecords, walGroups)
	m["wal.bytes_per_op"] = ratio(walBytes, ops)
	if storeBlocks := delta(b, a, "zugchain_store_blocks_total"); storeBlocks > 0 {
		// One file fsync per block plus one directory fsync per group.
		m["blockchain.fsyncs_per_block"] = (storeBlocks + delta(b, a, "zugchain_store_groups_total")) / storeBlocks
	}
	walUs, storeUs, err := persistProbe(r.c.cfg.dataRoot+"-probe", int(ratio(walBytes, walRecords)), r.sampleEntries())
	if err == nil {
		m["wal.append_us"], m["blockchain.store_append_us"] = walUs, storeUs
	}
	m["bench.latency_samples"] = float64(sum.n)
	m["bench.tail_percentile"] = sum.tailPct
	return m
}

// sampleEntries returns the entries of a recent block for the persistence
// probe.
func (r *recordRun) sampleEntries() []blockchain.Entry {
	for _, s := range r.c.srcs {
		if s.HeadIndex() == 0 {
			continue
		}
		if b, err := s.Get(s.HeadIndex()); err == nil {
			return b.Entries
		}
	}
	return nil
}
