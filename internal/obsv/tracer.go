package obsv

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
)

// Phase enumerates a record's lifecycle transitions through the ordering
// pipeline (Fig 3 left to right).
type Phase uint8

// Lifecycle phases, in pipeline order.
const (
	// PhaseIngest: the record was first seen (bus read or peer broadcast)
	// and admitted into the request queue R.
	PhaseIngest Phase = iota
	// PhaseBatch: the record entered a proposal (the primary's batch, or a
	// direct unbatched proposal).
	PhaseBatch
	// PhasePrePrepare: the slot's preprepare was accepted (this replica
	// proposed, or voted prepare on the primary's proposal).
	PhasePrePrepare
	// PhasePrepare: the slot gathered a prepared certificate (the commit
	// vote left).
	PhasePrepare
	// PhaseCommit: the slot committed; delivery began.
	PhaseCommit
	// PhaseExecute: the record was deduplicated and logged to the block
	// builder (the LOG up-call).
	PhaseExecute
	// PhaseFsync: the record's block was sealed and fsync'd at a
	// checkpoint boundary.
	PhaseFsync

	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseIngest:
		return "ingest"
	case PhaseBatch:
		return "batch"
	case PhasePrePrepare:
		return "preprepare"
	case PhasePrepare:
		return "prepare"
	case PhaseCommit:
		return "commit"
	case PhaseExecute:
		return "execute"
	case PhaseFsync:
		return "fsync"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Trace is one record's completed lifecycle: per-phase wall-clock stamps
// (zero = the phase was not observed on this replica; a backup that never
// proposed a record has no batch stamp).
type Trace struct {
	Digest crypto.Digest
	Seq    uint64
	Times  [numPhases]time.Time
}

// Total is ingest-to-execute: the end-to-end ordering latency this replica
// observed for the record.
func (t *Trace) Total() time.Duration {
	if t.Times[PhaseIngest].IsZero() || t.Times[PhaseExecute].IsZero() {
		return 0
	}
	return t.Times[PhaseExecute].Sub(t.Times[PhaseIngest])
}

// Bounds on the tracer's auxiliary state. Records stuck in flight (ordered
// by another replica first, dropped by a faulty primary) and slots whose
// records all deduplicated would otherwise accumulate; both tables evict
// oldest-first past these limits, counting the evictions.
const (
	DefaultTraceRing = 256
	maxOpenRecords   = 8192
	maxOpenSlots     = 4096
)

// Tracer stamps each record's lifecycle transitions and aggregates them
// into per-phase latency histograms, a ring of the last N completed traces,
// and a slow-record log. All methods are nil-safe (a nil *Tracer records
// nothing) and safe for concurrent use. Aggregate state is fixed-size:
// histograms are bounded buckets, traces live in rings, and the in-flight
// tables are eviction-bounded, so tracing a node for a month costs the same
// memory as tracing it for a minute.
type Tracer struct {
	slow time.Duration

	// phaseHist[p] holds the latency from the previous observed phase to
	// p; total is ingest-to-execute, fsync is execute-to-fsync per block.
	phaseHist [numPhases]*Histogram
	total     *Histogram

	mu    sync.Mutex
	open  map[crypto.Digest]*openTrace // in-flight records
	openQ []crypto.Digest              // eviction order for open
	slots map[uint64]*slotTimes        // in-flight slot stamps
	slotQ []uint64                     // eviction order for slots

	ring    []Trace // completed traces, ring[ringN % len] is next
	ringN   uint64  // completed count (monotonic)
	slowLog []Trace // last completed traces above the slow threshold
	slowN   uint64

	// pendingFsync references completed ring entries whose block has not
	// fsync'd yet: (ring position, seq). Resolved at the next checkpoint.
	pendingFsync []fsyncRef

	evicted   atomic.Uint64
	slowTotal atomic.Uint64
	logSlow   bool
}

type openTrace struct {
	times [numPhases]time.Time
}

type slotTimes struct {
	times [numPhases]time.Time
}

type fsyncRef struct {
	pos uint64 // absolute ring position (ringN at completion)
	seq uint64
}

// TracerOptions parameterizes a Tracer.
type TracerOptions struct {
	// Ring is the number of completed traces retained for /tracez
	// (default DefaultTraceRing).
	Ring int
	// Slow, when positive, marks records whose ingest-to-execute latency
	// meets the threshold: they are retained in a separate ring, counted,
	// and logged.
	Slow time.Duration
}

// NewTracer builds a tracer.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.Ring <= 0 {
		opts.Ring = DefaultTraceRing
	}
	t := &Tracer{
		slow:    opts.Slow,
		total:   NewHistogram(),
		open:    make(map[crypto.Digest]*openTrace),
		slots:   make(map[uint64]*slotTimes),
		ring:    make([]Trace, opts.Ring),
		slowLog: make([]Trace, 32),
		logSlow: opts.Slow > 0,
	}
	for p := range t.phaseHist {
		t.phaseHist[p] = NewHistogram()
	}
	return t
}

// BeginRecord stamps a record's ingest: it was admitted into the request
// queue. Re-begin of an already-open digest keeps the original stamp.
func (t *Tracer) BeginRecord(d crypto.Digest) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.open[d]; ok {
		return
	}
	for len(t.open) >= maxOpenRecords && len(t.openQ) > 0 {
		// Evict the oldest in-flight record; its trace is lost, which is
		// the bounded-memory deal. Queue heads whose digest already
		// finished (lazy removal) are skipped without counting.
		victim := t.openQ[0]
		t.openQ = t.openQ[1:]
		if _, live := t.open[victim]; live {
			delete(t.open, victim)
			t.evicted.Add(1)
		}
	}
	ot := &openTrace{}
	ot.times[PhaseIngest] = now
	t.open[d] = ot
	t.openQ = append(t.openQ, d)
}

// StampRecord stamps a record-level phase (PhaseBatch). First write wins.
func (t *Tracer) StampRecord(d crypto.Digest, p Phase) {
	if t == nil || p >= numPhases {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if ot, ok := t.open[d]; ok && ot.times[p].IsZero() {
		ot.times[p] = now
	}
}

// StampSlot stamps a slot-level phase (PhasePrePrepare, PhasePrepare,
// PhaseCommit): these transitions happen per agreement slot, and every
// record carried by the slot inherits them when it finishes. First write
// wins (a retransmitted vote must not move the stamp).
func (t *Tracer) StampSlot(seq uint64, p Phase) {
	if t == nil || p >= numPhases {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.slots[seq]
	if !ok {
		if len(t.slotQ) >= maxOpenSlots {
			victim := t.slotQ[0]
			t.slotQ = t.slotQ[1:]
			delete(t.slots, victim)
			t.evicted.Add(1)
		}
		st = &slotTimes{}
		t.slots[seq] = st
		t.slotQ = append(t.slotQ, seq)
	}
	if st.times[p].IsZero() {
		st.times[p] = now
	}
}

// FinishRecord stamps a record's execute (the LOG up-call at slot seq),
// joins the slot-level stamps into its trace, feeds the per-phase
// histograms, and retires the trace into the completed ring. Unknown
// digests (records this replica never ingested — e.g. installed by state
// transfer) are ignored.
func (t *Tracer) FinishRecord(d crypto.Digest, seq uint64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	ot, ok := t.open[d]
	if !ok {
		return
	}
	delete(t.open, d)
	// Lazy removal from openQ: entries whose digest is gone from the map
	// are skipped at eviction time. Compact here only when the queue has
	// drifted far from the map (bounded amortized cost).
	if len(t.openQ) > 2*len(t.open)+64 {
		q := t.openQ[:0]
		for _, od := range t.openQ {
			if _, live := t.open[od]; live {
				q = append(q, od)
			}
		}
		t.openQ = q
	}

	tr := Trace{Digest: d, Seq: seq, Times: ot.times}
	tr.Times[PhaseExecute] = now
	if st, ok := t.slots[seq]; ok {
		for _, p := range []Phase{PhasePrePrepare, PhasePrepare, PhaseCommit} {
			if tr.Times[p].IsZero() {
				tr.Times[p] = st.times[p]
			}
		}
	}

	// Per-phase histograms: latency from the previous observed phase.
	prev := tr.Times[PhaseIngest]
	for p := PhaseBatch; p <= PhaseExecute; p++ {
		cur := tr.Times[p]
		if cur.IsZero() || prev.IsZero() {
			continue
		}
		if d := cur.Sub(prev); d >= 0 {
			t.phaseHist[p].Observe(d)
		}
		prev = cur
	}
	if total := tr.Total(); total > 0 {
		t.total.Observe(total)
		if t.slow > 0 && total >= t.slow {
			t.slowLog[t.slowN%uint64(len(t.slowLog))] = tr
			t.slowN++
			t.slowTotal.Add(1)
			if t.logSlow {
				log.Printf("obsv: slow record %x seq=%d total=%v (%s)",
					tr.Digest[:4], tr.Seq, total.Round(time.Microsecond), tr.phaseSummary())
			}
		}
	}

	pos := t.ringN
	t.ring[pos%uint64(len(t.ring))] = tr
	t.ringN++
	t.pendingFsync = append(t.pendingFsync, fsyncRef{pos: pos, seq: seq})
	if len(t.pendingFsync) > len(t.ring) {
		t.pendingFsync = t.pendingFsync[len(t.pendingFsync)-len(t.ring):]
	}
}

// Fsync stamps the execute-to-fsync transition for every completed record
// at or below seq whose block just became durable, and garbage-collects
// slot stamps at or below seq (their records are all retired).
func (t *Tracer) Fsync(seq uint64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	keep := t.pendingFsync[:0]
	for _, ref := range t.pendingFsync {
		if ref.seq > seq {
			keep = append(keep, ref)
			continue
		}
		// Still in the ring? ring positions [ringN-len, ringN) are live.
		if ref.pos+uint64(len(t.ring)) < t.ringN {
			continue
		}
		tr := &t.ring[ref.pos%uint64(len(t.ring))]
		if tr.Times[PhaseFsync].IsZero() && !tr.Times[PhaseExecute].IsZero() {
			tr.Times[PhaseFsync] = now
			t.phaseHist[PhaseFsync].Observe(now.Sub(tr.Times[PhaseExecute]))
		}
	}
	t.pendingFsync = keep

	q := t.slotQ[:0]
	for _, s := range t.slotQ {
		if s <= seq {
			delete(t.slots, s)
		} else {
			q = append(q, s)
		}
	}
	t.slotQ = q
}

// phaseSummary renders a trace's observed inter-phase latencies (callers
// hold no lock; Trace is a value).
func (t *Trace) phaseSummary() string {
	out := ""
	prev := t.Times[PhaseIngest]
	for p := PhaseBatch; p < numPhases; p++ {
		cur := t.Times[p]
		if cur.IsZero() || prev.IsZero() {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%v", p, cur.Sub(prev).Round(time.Microsecond))
		prev = cur
	}
	return out
}

// Traces returns the last completed traces, oldest first.
func (t *Tracer) Traces() []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return ringCopy(t.ring, t.ringN)
}

// SlowTraces returns the retained slow traces, oldest first, and the total
// number of slow records observed.
func (t *Tracer) SlowTraces() ([]Trace, uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return ringCopy(t.slowLog, t.slowN), t.slowTotal.Load()
}

func ringCopy(ring []Trace, n uint64) []Trace {
	size := uint64(len(ring))
	if n < size {
		size = n
	}
	out := make([]Trace, 0, size)
	for i := uint64(0); i < size; i++ {
		out = append(out, ring[(n-size+i)%uint64(len(ring))])
	}
	return out
}

// Completed reports how many traces finished; Evicted how many in-flight
// entries the bounds discarded.
func (t *Tracer) Completed() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ringN
}

// Evicted reports in-flight records/slots dropped by the memory bounds.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	return t.evicted.Load()
}

// PhaseSnapshot returns the latency histogram for one phase transition.
func (t *Tracer) PhaseSnapshot(p Phase) HistSnapshot {
	if t == nil || p >= numPhases {
		return HistSnapshot{}
	}
	return t.phaseHist[p].Snapshot()
}

// TotalSnapshot returns the ingest-to-execute latency histogram.
func (t *Tracer) TotalSnapshot() HistSnapshot {
	if t == nil {
		return HistSnapshot{}
	}
	return t.total.Snapshot()
}

// RegisterOn exports the tracer's histograms and counters into a registry.
func (t *Tracer) RegisterOn(r *Registry) {
	if t == nil {
		return
	}
	for p := PhaseBatch; p < numPhases; p++ {
		name := fmt.Sprintf("zugchain_trace_%s_seconds", p)
		r.RegisterHistogram(name, "Latency from the previous lifecycle phase to "+p.String(), t.phaseHist[p])
	}
	r.RegisterHistogram("zugchain_trace_total_seconds", "Ingest-to-execute record latency", t.total)
	r.Register("tracer", func() []metrics.Metric {
		t.mu.Lock()
		completed := t.ringN
		inflight := len(t.open)
		t.mu.Unlock()
		return []metrics.Metric{
			metrics.Counter("zugchain_trace_completed_total", "Records with completed traces", completed),
			metrics.Gauge("zugchain_trace_inflight", "Records currently in flight", float64(inflight)),
			metrics.Counter("zugchain_trace_slow_total", "Records above the slow threshold", t.slowTotal.Load()),
			metrics.Counter("zugchain_trace_evicted_total", "In-flight trace entries evicted by memory bounds", t.evicted.Load()),
		}
	})
}
