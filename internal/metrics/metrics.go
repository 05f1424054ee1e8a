// Package metrics collects the measurements used to reproduce the paper's
// evaluation: request latencies (Fig 6, 8, 9), network utilization (Fig 6),
// and the CPU/memory work proxies (Fig 7, 9).
//
// Real CPU-percent measurements on 800 MHz ARM cores are not reproducible on
// commodity machines, so CPU load is approximated by counting the dominant
// work items — signature generation/verification and protocol messages
// handled — while memory is sampled from the Go runtime. DESIGN.md §1
// documents this substitution.
//
// Each counter family is a struct of exported atomics that callers read
// directly, plus one Metrics method listing every series it exports. A
// counter is declared once: its field, and its line in Metrics.
package metrics

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MetricKind distinguishes how an exported series behaves.
type MetricKind int

// Metric kinds.
const (
	KindCounter MetricKind = iota // monotonically increasing
	KindGauge                     // instantaneous value
)

// Metric is one exported sample. Name must be a valid Prometheus metric
// name (snake_case, typically prefixed zugchain_); Labels, when non-empty,
// is the label body without braces, e.g. `phase="commit"`.
type Metric struct {
	Name   string
	Help   string
	Kind   MetricKind
	Labels string
	Value  float64
}

// Counter returns a counter sample.
func Counter(name, help string, v uint64) Metric {
	return Metric{Name: name, Help: help, Value: float64(v)}
}

// Gauge returns a gauge sample.
func Gauge(name, help string, v float64) Metric {
	return Metric{Name: name, Help: help, Kind: KindGauge, Value: v}
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Counters aggregates the communication layer's monotonically increasing
// event counts. All methods are safe for concurrent use. The zero value is
// ready to use.
type Counters struct {
	MsgsSent      atomic.Uint64
	MsgsReceived  atomic.Uint64
	BytesSent     atomic.Uint64
	BytesReceived atomic.Uint64
	Signatures    atomic.Uint64
	Verifications atomic.Uint64
	Requests      atomic.Uint64 // ordered (decided) requests
	Duplicates    atomic.Uint64 // filtered duplicate requests
	// PayloadHits and PayloadMisses count the lookups of a referenced
	// proposal's payload in the request queue R; each miss makes the
	// backup fetch the full PrePrepare from the primary.
	PayloadHits   atomic.Uint64
	PayloadMisses atomic.Uint64
}

// AddSent records an outbound message of n bytes.
func (c *Counters) AddSent(n int) {
	c.MsgsSent.Add(1)
	c.BytesSent.Add(uint64(n))
}

// AddReceived records an inbound message of n bytes.
func (c *Counters) AddReceived(n int) {
	c.MsgsReceived.Add(1)
	c.BytesReceived.Add(uint64(n))
}

// AddSignature records one signature generation.
func (c *Counters) AddSignature() { c.Signatures.Add(1) }

// AddVerification records one signature verification.
func (c *Counters) AddVerification() { c.Verifications.Add(1) }

// AddRequest records one ordered (decided) request.
func (c *Counters) AddRequest() { c.Requests.Add(1) }

// AddDuplicate records one filtered duplicate request.
func (c *Counters) AddDuplicate() { c.Duplicates.Add(1) }

// Metrics lists the communication layer's series (Fig 6/7's message and
// request accounting).
func (c *Counters) Metrics() []Metric {
	return []Metric{
		Counter("zugchain_core_msgs_sent_total", "Layer messages sent", c.MsgsSent.Load()),
		Counter("zugchain_core_msgs_received_total", "Layer messages received", c.MsgsReceived.Load()),
		Counter("zugchain_core_bytes_sent_total", "Layer bytes sent", c.BytesSent.Load()),
		Counter("zugchain_core_bytes_received_total", "Layer bytes received", c.BytesReceived.Load()),
		Counter("zugchain_core_signatures_total", "Signatures generated", c.Signatures.Load()),
		Counter("zugchain_core_verifications_total", "Signatures verified", c.Verifications.Load()),
		Counter("zugchain_core_ordered_total", "Requests ordered and logged", c.Requests.Load()),
		Counter("zugchain_core_duplicates_total", "Duplicate requests filtered", c.Duplicates.Load()),
		Counter("zugchain_core_payload_hits_total", "Referenced proposal payloads found in R", c.PayloadHits.Load()),
		Counter("zugchain_core_payload_misses_total", "Referenced proposal payloads missing from R (each fetches the full PrePrepare)", c.PayloadMisses.Load()),
	}
}

// CPUWorkUnits collapses work counts into a single CPU-load proxy. The
// weights reflect that Ed25519 operations dominate per-message handling cost
// on the paper's hardware (sign ≈ verify ≈ 30–60 µs on Cortex-A9; framing
// and hashing are an order of magnitude cheaper).
func CPUWorkUnits(signatures, verifications, msgs, bytes uint64) float64 {
	const (
		signCost   = 10.0
		verifyCost = 10.0
		msgCost    = 1.0
		byteCost   = 0.001
	)
	return signCost*float64(signatures) +
		verifyCost*float64(verifications) +
		msgCost*float64(msgs) +
		byteCost*float64(bytes)
}

// CryptoCounters instruments the Ed25519 acceleration layer: how many
// signatures settled via the batched multi-scalar equation versus individual
// scalar verifies, how often a failed batch had to bisect to find the corrupt
// entries, the verified-signature cache's hit/miss/eviction traffic, and the
// Commit authenticators that failed their pairwise MAC check. It keeps O(1)
// state so it can sit on the verification hot path. All methods are safe
// for concurrent use and the recording methods are nil-safe (a nil receiver
// records nothing), so uninstrumented registries pay only a nil check; the
// zero value is ready to use.
type CryptoCounters struct {
	ScalarVerifies atomic.Uint64 // single equations, including bisection leaves
	BatchedSigs    atomic.Uint64 // signatures settled through batch equations
	BatchOps       atomic.Uint64
	BatchMax       atomic.Int64
	Bisections     atomic.Uint64
	CacheHits      atomic.Uint64
	CacheMisses    atomic.Uint64
	CacheEvictions atomic.Uint64
	MACRejects     atomic.Uint64 // Commits whose pairwise tag did not check
}

// AddScalarVerify records one individual (non-batched) signature
// verification — a single cofactored equation, or a bisection leaf.
func (c *CryptoCounters) AddScalarVerify() {
	if c == nil {
		return
	}
	c.ScalarVerifies.Add(1)
}

// RecordBatch records one batched verification equation covering n
// signatures.
func (c *CryptoCounters) RecordBatch(n int) {
	if c == nil {
		return
	}
	c.BatchOps.Add(1)
	c.BatchedSigs.Add(uint64(n))
	storeMax(&c.BatchMax, int64(n))
}

// AddBisection records one bisection split while pinpointing corrupt
// signatures in a failed batch.
func (c *CryptoCounters) AddBisection() {
	if c == nil {
		return
	}
	c.Bisections.Add(1)
}

// AddCacheHit records one verified-signature cache hit (a skipped verify).
func (c *CryptoCounters) AddCacheHit() {
	if c == nil {
		return
	}
	c.CacheHits.Add(1)
}

// AddCacheMiss records one verified-signature cache miss.
func (c *CryptoCounters) AddCacheMiss() {
	if c == nil {
		return
	}
	c.CacheMisses.Add(1)
}

// AddCacheEviction records one entry evicted by the cache's LRU bound.
func (c *CryptoCounters) AddCacheEviction() {
	if c == nil {
		return
	}
	c.CacheEvictions.Add(1)
}

// AddMACReject records one Commit dropped because its pairwise MAC did not
// check: a forged or replayed tag, or a peer deriving a different key.
func (c *CryptoCounters) AddMACReject() {
	if c == nil {
		return
	}
	c.MACRejects.Add(1)
}

// Metrics lists the Ed25519 acceleration series (batch verification shape,
// verified-signature cache traffic) and the pairwise-MAC rejects.
func (c *CryptoCounters) Metrics() []Metric {
	return []Metric{
		Counter("zugchain_crypto_scalar_verifies_total", "Individual signature verifications", c.ScalarVerifies.Load()),
		Counter("zugchain_crypto_batched_sigs_total", "Signatures settled via batch equations", c.BatchedSigs.Load()),
		Counter("zugchain_crypto_batch_ops_total", "Batch equations evaluated", c.BatchOps.Load()),
		Gauge("zugchain_crypto_batch_max", "Largest single batch equation", float64(c.BatchMax.Load())),
		Counter("zugchain_crypto_bisections_total", "Bisection splits hunting corrupt signatures", c.Bisections.Load()),
		Counter("zugchain_crypto_cache_hits_total", "Verified-signature cache hits", c.CacheHits.Load()),
		Counter("zugchain_crypto_cache_misses_total", "Verified-signature cache misses", c.CacheMisses.Load()),
		Counter("zugchain_crypto_cache_evictions_total", "Verified-signature cache evictions", c.CacheEvictions.Load()),
		Counter("zugchain_crypto_mac_rejects_total", "Commits dropped for a pairwise MAC that did not check", c.MACRejects.Load()),
	}
}

// PoolCounters instruments an asynchronous worker pool (the signature
// verification pipeline): how many tasks ran on pool workers versus inline on
// the submitting goroutine, the current and peak queue depth, and the longest
// submit-to-completion task latency. Unlike Latency it keeps O(1) state so it
// can sit on the verification hot path without accumulating samples. All
// methods are safe for concurrent use; the zero value is ready to use.
type PoolCounters struct {
	Offloaded atomic.Uint64
	Inline    atomic.Uint64 // fast path or backpressure
	Panics    atomic.Uint64 // nonzero means a verification callback has a bug
	Depth     atomic.Int64
	Peak      atomic.Int64
	TaskMaxNs atomic.Int64
}

// AddOffloaded records one task executed by a pool worker.
func (p *PoolCounters) AddOffloaded() { p.Offloaded.Add(1) }

// AddInline records one task executed on the submitter (fast path or
// backpressure).
func (p *PoolCounters) AddInline() { p.Inline.Add(1) }

// AddPanic records one task panic contained by a pool worker. Nonzero means
// a verification callback has a bug; the pool survives, the counter makes
// the bug visible.
func (p *PoolCounters) AddPanic() { p.Panics.Add(1) }

// Enqueued records a task entering the queue, tracking the peak depth.
func (p *PoolCounters) Enqueued() { storeMax(&p.Peak, p.Depth.Add(1)) }

// Dequeued records a task leaving the queue.
func (p *PoolCounters) Dequeued() { p.Depth.Add(-1) }

// RecordTask records one task's submit-to-completion latency.
func (p *PoolCounters) RecordTask(d time.Duration) { storeMax(&p.TaskMaxNs, int64(d)) }

// Metrics lists the verification pipeline's series.
func (p *PoolCounters) Metrics() []Metric {
	return []Metric{
		Counter("zugchain_pool_offloaded_total", "Tasks run on pool workers", p.Offloaded.Load()),
		Counter("zugchain_pool_inline_total", "Tasks run inline on the submitter", p.Inline.Load()),
		Counter("zugchain_pool_panics_total", "Task panics contained by workers", p.Panics.Load()),
		Gauge("zugchain_pool_queue_depth", "Instantaneous task queue depth", float64(p.Depth.Load())),
		Gauge("zugchain_pool_queue_peak", "Peak task queue depth", float64(p.Peak.Load())),
		Gauge("zugchain_pool_task_max_seconds", "Longest task submit-to-completion latency", time.Duration(p.TaskMaxNs.Load()).Seconds()),
	}
}

// BatchCounters instruments the primary's request coalescing (the ordering
// hot path's batching stage): how many flushes happened and why (the batch
// filled up, the max-batch-delay expired, or a record found the primary
// idle), how many records they carried, and the longest wait of a flush's
// oldest record. Like PoolCounters it keeps O(1) state so it can sit on the
// hot path. All methods are safe for concurrent use; the zero value is
// ready to use.
type BatchCounters struct {
	Flushes      atomic.Uint64
	Records      atomic.Uint64
	SizeFlushes  atomic.Uint64
	DelayFlushes atomic.Uint64
	IdleFlushes  atomic.Uint64
	MaxSize      atomic.Int64
	WaitMaxNs    atomic.Int64
}

// FlushTrigger says what made the primary flush its open batch.
type FlushTrigger uint8

const (
	// FlushSize: the batch filled up, or a view change flushed the
	// re-proposed records at once.
	FlushSize FlushTrigger = iota
	// FlushDelay: the max-batch-delay timer expired.
	FlushDelay
	// FlushIdle: a record opened an empty batch after the primary had
	// been idle for the max-batch delay, so it was proposed at once.
	FlushIdle
)

// RecordFlush records one batch flush of size records whose oldest record
// waited wait, triggered by trigger.
func (b *BatchCounters) RecordFlush(size int, wait time.Duration, trigger FlushTrigger) {
	b.Flushes.Add(1)
	b.Records.Add(uint64(size))
	switch trigger {
	case FlushDelay:
		b.DelayFlushes.Add(1)
	case FlushIdle:
		b.IdleFlushes.Add(1)
	default:
		b.SizeFlushes.Add(1)
	}
	storeMax(&b.MaxSize, int64(size))
	storeMax(&b.WaitMaxNs, int64(wait))
}

// Metrics lists the primary's request-coalescing series.
func (b *BatchCounters) Metrics() []Metric {
	return []Metric{
		Counter("zugchain_batch_flushes_total", "Proposal batches flushed", b.Flushes.Load()),
		Counter("zugchain_batch_records_total", "Records carried by flushed batches", b.Records.Load()),
		Counter("zugchain_batch_size_flushes_total", "Flushes triggered by the size limit", b.SizeFlushes.Load()),
		Counter("zugchain_batch_delay_flushes_total", "Flushes triggered by the delay timer", b.DelayFlushes.Load()),
		Counter("zugchain_batch_idle_flushes_total", "Records proposed at once by an idle primary", b.IdleFlushes.Load()),
		Gauge("zugchain_batch_max_size", "Largest single flush", float64(b.MaxSize.Load())),
		Gauge("zugchain_batch_wait_max_seconds", "Longest batching wait", time.Duration(b.WaitMaxNs.Load()).Seconds()),
	}
}

// GroupCommitCounters instruments the blockchain store's group-commit
// writer: how many durable write groups ran, how many blocks they covered
// (one fsync per group makes every block in it durable at once),
// and how many explicit Sync barriers were requested. Safe for concurrent
// use; the zero value is ready to use.
type GroupCommitCounters struct {
	Groups atomic.Uint64
	Blocks atomic.Uint64
	Syncs  atomic.Uint64
}

// RecordGroup records one committed write group of n blocks.
func (g *GroupCommitCounters) RecordGroup(n int) {
	g.Groups.Add(1)
	g.Blocks.Add(uint64(n))
}

// AddSync records one explicit Sync barrier request.
func (g *GroupCommitCounters) AddSync() { g.Syncs.Add(1) }

// Metrics lists the store's group-commit series.
func (g *GroupCommitCounters) Metrics() []Metric {
	return []Metric{
		Counter("zugchain_store_groups_total", "Fsynced block write groups", g.Groups.Load()),
		Counter("zugchain_store_blocks_total", "Blocks covered by write groups", g.Blocks.Load()),
		Counter("zugchain_store_syncs_total", "Explicit Sync barriers", g.Syncs.Load()),
	}
}

// NetCounters instruments a transport's asynchronous outbound pipeline (the
// per-peer send queues and their coalescing writers): queue depth and peak,
// frames dropped on queue overflow or lost to broken connections, how many
// frames each write syscall carried, and background redials. Like
// PoolCounters it keeps O(1) state so it can sit on the transport hot path.
// All methods are safe for concurrent use; the zero value is ready to use.
type NetCounters struct {
	Accepted    atomic.Uint64 // frames accepted into send queues
	Drops       atomic.Uint64 // frames evicted by the overflow policy
	WriteErrors atomic.Uint64 // frames lost when a connection write failed
	WriteOps    atomic.Uint64
	Frames      atomic.Uint64 // frames carried by WriteOps
	Redials     atomic.Uint64
	Depth       atomic.Int64
	Peak        atomic.Int64
}

// Enqueued records one frame entering a send queue, tracking peak depth.
func (n *NetCounters) Enqueued() {
	n.Accepted.Add(1)
	storeMax(&n.Peak, n.Depth.Add(1))
}

// Dequeued records k frames leaving a send queue.
func (n *NetCounters) Dequeued(k int) { n.Depth.Add(-int64(k)) }

// AddDrop records one frame dropped by the queue-overflow policy.
func (n *NetCounters) AddDrop() { n.Drops.Add(1) }

// AddWriteError records k frames lost to a failed connection write.
func (n *NetCounters) AddWriteError(k int) { n.WriteErrors.Add(uint64(k)) }

// AddWrite records one write syscall that flushed k coalesced frames.
func (n *NetCounters) AddWrite(k int) {
	n.WriteOps.Add(1)
	n.Frames.Add(uint64(k))
}

// AddRedial records one background reconnection attempt.
func (n *NetCounters) AddRedial() { n.Redials.Add(1) }

// Metrics lists the outbound pipeline's series.
func (n *NetCounters) Metrics() []Metric {
	return []Metric{
		Counter("zugchain_net_enqueued_total", "Frames accepted into send queues", n.Accepted.Load()),
		Counter("zugchain_net_drops_total", "Frames dropped by queue overflow", n.Drops.Load()),
		Counter("zugchain_net_write_errors_total", "Frames lost to failed connection writes", n.WriteErrors.Load()),
		Counter("zugchain_net_write_ops_total", "Write syscalls issued", n.WriteOps.Load()),
		Counter("zugchain_net_frames_total", "Frames carried by write syscalls", n.Frames.Load()),
		Counter("zugchain_net_redials_total", "Background reconnection attempts", n.Redials.Load()),
		Gauge("zugchain_net_queue_depth", "Instantaneous outbound backlog", float64(n.Depth.Load())),
		Gauge("zugchain_net_queue_peak", "Peak outbound backlog", float64(n.Peak.Load())),
	}
}

// WALCounters instruments the PBFT write-ahead log: how many fsync'd append
// groups ran and how many records/bytes they carried (the group-commit
// amortization of the durability cost), plus checkpoint rotations and what
// recovery found on open. Safe for concurrent use; the zero value is ready
// to use.
type WALCounters struct {
	Groups         atomic.Uint64
	Records        atomic.Uint64
	Bytes          atomic.Uint64
	Rotations      atomic.Uint64
	Replayed       atomic.Uint64 // records restored on open
	TruncatedBytes atomic.Uint64 // corrupt tail bytes recovery discarded
}

// RecordGroup records one fsync'd append group of n records totalling b
// payload bytes.
func (w *WALCounters) RecordGroup(n, b int) {
	w.Groups.Add(1)
	w.Records.Add(uint64(n))
	w.Bytes.Add(uint64(b))
}

// AddRotation records one checkpoint-triggered segment rotation.
func (w *WALCounters) AddRotation() { w.Rotations.Add(1) }

// RecordReplay records what recovery found on open: n replayed records and
// b corrupt tail bytes discarded.
func (w *WALCounters) RecordReplay(n int, b int64) {
	w.Replayed.Add(uint64(n))
	w.TruncatedBytes.Add(uint64(b))
}

// Metrics lists the write-ahead log's series.
func (w *WALCounters) Metrics() []Metric {
	return []Metric{
		Counter("zugchain_wal_groups_total", "Fsynced WAL append groups", w.Groups.Load()),
		Counter("zugchain_wal_records_total", "Records carried by append groups", w.Records.Load()),
		Counter("zugchain_wal_bytes_total", "Payload bytes appended", w.Bytes.Load()),
		Counter("zugchain_wal_rotations_total", "Checkpoint-triggered segment rotations", w.Rotations.Load()),
		Counter("zugchain_wal_replayed_total", "Records replayed by recovery on open", w.Replayed.Load()),
		Counter("zugchain_wal_truncated_bytes_total", "Corrupt tail bytes discarded by recovery", w.TruncatedBytes.Load()),
	}
}

// DefaultLatencyCap bounds how many samples a Latency retains. It is sized
// well above any experiment run reproducing the paper's figures (a few
// thousand records), so those keep exact percentiles, while a long-running
// daemon's memory stays fixed: once the cap is reached the ring overwrites
// the oldest samples and statistics describe the most recent window.
const DefaultLatencyCap = 1 << 16

// Latency accumulates duration samples in a bounded ring and reports
// distribution statistics over the retained window. It is safe for
// concurrent use; the zero value is ready to use with DefaultLatencyCap.
type Latency struct {
	mu      sync.Mutex
	cap     int // 0 = DefaultLatencyCap
	samples []TimedSample
	next    int  // overwrite position once full
	wrapped bool // the ring has overwritten at least one sample
	total   uint64
}

// SetCap bounds the retained samples (before the cap is reached). Values
// <= 0 select DefaultLatencyCap. Calling it after samples were dropped to
// a smaller previous cap does not recover them.
func (l *Latency) SetCap(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 {
		n = DefaultLatencyCap
	}
	l.cap = n
}

func (l *Latency) capLocked() int {
	if l.cap <= 0 {
		return DefaultLatencyCap
	}
	return l.cap
}

// Record adds one sample, stamping it with the wall-clock arrival time so
// time series (the view-change latency timeline of Fig 8) can be rebuilt.
// Past the cap, the oldest sample is overwritten.
func (l *Latency) Record(d time.Duration) {
	now := time.Now()
	l.mu.Lock()
	l.total++
	if max := l.capLocked(); len(l.samples) >= max {
		l.samples[l.next] = TimedSample{At: now, D: d}
		l.next = (l.next + 1) % max
		l.wrapped = true
	} else {
		l.samples = append(l.samples, TimedSample{At: now, D: d})
	}
	l.mu.Unlock()
}

// TimedSample is one latency observation with its wall-clock arrival time.
type TimedSample struct {
	At time.Time
	D  time.Duration
}

// TimedSamples returns the retained samples with their arrival timestamps
// in arrival order (the full history until the cap is reached, the most
// recent window after).
func (l *Latency) TimedSamples() []TimedSample {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TimedSample, 0, len(l.samples))
	if l.wrapped {
		out = append(out, l.samples[l.next:]...)
		out = append(out, l.samples[:l.next]...)
		return out
	}
	return append(out, l.samples...)
}

// Count reports the number of retained samples.
func (l *Latency) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
}

// Total reports the number of samples ever recorded, including any the
// ring has overwritten.
func (l *Latency) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dropped reports how many samples the ring has overwritten.
func (l *Latency) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total - uint64(len(l.samples))
}

// LatencyStats summarizes a latency distribution.
type LatencyStats struct {
	Count  int
	Mean   time.Duration
	Median time.Duration
	P99    time.Duration
	Max    time.Duration
}

// Stats computes distribution statistics over the retained samples (exact
// until the ring cap is reached, the most recent window after).
func (l *Latency) Stats() LatencyStats {
	l.mu.Lock()
	samples := make([]time.Duration, len(l.samples))
	for i := range l.samples {
		samples[i] = l.samples[i].D
	}
	l.mu.Unlock()

	if len(samples) == 0 {
		return LatencyStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	n := len(samples)
	return LatencyStats{
		Count:  n,
		Mean:   sum / time.Duration(n),
		Median: samples[n/2],
		P99:    samples[percentileIndex(n, 0.99)],
		Max:    samples[n-1],
	}
}

// Samples returns a copy of the retained samples in arrival order, used for
// the view-change latency timeline (Fig 8).
func (l *Latency) Samples() []time.Duration {
	timed := l.TimedSamples()
	out := make([]time.Duration, len(timed))
	for i := range timed {
		out[i] = timed[i].D
	}
	return out
}

// Reset discards all samples (retained and counted).
func (l *Latency) Reset() {
	l.mu.Lock()
	l.samples = l.samples[:0]
	l.next = 0
	l.wrapped = false
	l.total = 0
	l.mu.Unlock()
}

func percentileIndex(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		return 0
	}
	if idx >= n {
		return n - 1
	}
	return idx
}

// MemorySample captures the Go heap state as the memory-usage proxy.
type MemorySample struct {
	HeapAlloc  uint64
	TotalAlloc uint64
	NumGC      uint32
}

// SampleMemory reads the current runtime memory statistics.
func SampleMemory() MemorySample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemorySample{
		HeapAlloc:  ms.HeapAlloc,
		TotalAlloc: ms.TotalAlloc,
		NumGC:      ms.NumGC,
	}
}
