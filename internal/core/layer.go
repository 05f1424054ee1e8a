// Package core implements the ZugChain communication layer — the paper's
// primary contribution (§III-C, Algorithm 1). It adapts a primary-based BFT
// protocol to input arriving over an unauthenticated, unreliable bus read
// independently by every node:
//
//   - content-based duplicate filtering (payload digests against a sliding
//     window of decided requests plus the open-request queue), so identical
//     input read by all nodes is ordered only once;
//   - primary-aware proposing: only the node co-located with the current
//     primary proposes bus input directly;
//   - a soft timeout per request on backups: if the primary has not ordered
//     a request in time, the backup signs and broadcasts it;
//   - a hard timeout detecting censorship, escalating to SUSPECT and a view
//     change;
//   - duplicate-proposal detection at DECIDE time, suspecting a primary
//     that fails to filter;
//   - a per-origin open-request limit bounding the damage of a flooding
//     faulty node (§III-C fault (iii));
//   - support for multiple input sources (one logical queue per source).
package core

import (
	"sync"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
	"zugchain/internal/obsv"
	"zugchain/internal/pbft"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// BFT is the Table I interface ① the layer requires from the ordering
// module (satisfied by *pbft.Runner). DECIDE and NEWPRIMARY arrive as
// OnDecide/OnNewPrimary calls from the node wiring.
type BFT interface {
	// Propose submits a request for total ordering.
	Propose(req pbft.Request)
	// Suspect accuses a node (effective for the current primary) of
	// misbehaving, initiating a view change.
	Suspect(id crypto.NodeID)
}

// Recorder is the Table I interface ② up-call: LOG appends a totally
// ordered, deduplicated request to the blockchain.
type Recorder interface {
	Log(seq uint64, origin crypto.NodeID, payload, sig []byte)
}

// Config parameterizes the communication layer.
type Config struct {
	// ID is the local node.
	ID crypto.NodeID
	// SoftTimeout is the backup's wait before broadcasting a request the
	// primary has not ordered (250 ms in the paper's evaluation).
	SoftTimeout time.Duration
	// HardTimeout is the additional wait after broadcasting before the
	// primary is suspected (250 ms in the paper).
	HardTimeout time.Duration
	// MaxOpenPerOrigin bounds concurrently open broadcast requests per
	// origin node; §III-C derives it from the bus frequency.
	MaxOpenPerOrigin int
	// WindowSeqs is the width, in sequence numbers, of the decided-request
	// sliding window used by inLog. The paper sizes it as a number of past
	// checkpoints; with a checkpoint interval of 10 the default of 100
	// covers the last 10 checkpoints. It must be identical on all nodes:
	// eviction is driven purely by decided sequence numbers, keeping the
	// dedup decision — and therefore the blockchain — deterministic.
	WindowSeqs uint64
	// VerifyPool, when non-nil, offloads peer-request signature checks
	// (Algorithm 1 line 25) onto the pool's workers instead of the
	// transport delivery goroutine. Admission into the request queue R —
	// and every decision under the layer mutex — happens strictly after
	// verification either way.
	VerifyPool *crypto.VerifyPool
	// MaxBatch is the maximum number of records the primary coalesces
	// into one batched proposal before forcing a flush. 1 (the default)
	// disables batching: every record is proposed individually, which is
	// byte-identical to the pre-batching behavior. Each record inside a
	// batch keeps its own origin and signature, and the duplicate filter,
	// soft/hard timeouts and duplicate-decide suspicion all still operate
	// per record.
	MaxBatch int
	// MaxBatchDelay bounds how long a record may sit in the primary's
	// open batch waiting for companions before a flush is forced, and is
	// the least spacing between two flushes of partial batches: a record
	// that finds the batch empty and the primary idle for this long is
	// proposed at once. Only meaningful with MaxBatch > 1. Defaults to 2ms.
	MaxBatchDelay time.Duration
	// Tracer, when non-nil, stamps per-record lifecycle phases (ingest,
	// batch, decide) for the observability layer. All stamps are O(1)
	// ring/atomic operations; nil disables tracing with zero overhead.
	Tracer *obsv.Tracer
}

func (c *Config) applyDefaults() {
	if c.SoftTimeout <= 0 {
		c.SoftTimeout = 250 * time.Millisecond
	}
	if c.HardTimeout <= 0 {
		c.HardTimeout = 250 * time.Millisecond
	}
	if c.MaxOpenPerOrigin <= 0 {
		c.MaxOpenPerOrigin = 64
	}
	if c.WindowSeqs == 0 {
		c.WindowSeqs = DefaultWindowSeqs
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1
	}
	if c.MaxBatch > pbft.MaxBatchRecords {
		c.MaxBatch = pbft.MaxBatchRecords
	}
	if c.MaxBatchDelay <= 0 {
		c.MaxBatchDelay = 2 * time.Millisecond
	}
}

// DefaultWindowSeqs is the default dedup-window width in sequence numbers.
// Exported so the node's crash-recovery path can reconstruct the effective
// width when rebuilding the window from chain blocks.
const DefaultWindowSeqs = 100

// timerPhase identifies which Algorithm 1 timer is armed for a request.
type timerPhase uint8

const (
	phaseNone timerPhase = iota
	phaseSoft
	phaseHard
)

// reqState tracks one open request in the queue R of Algorithm 1.
type reqState struct {
	req      pbft.Request // as received (bus) or as signed by a peer
	source   int          // input source index (multi-bus support)
	origin   crypto.NodeID
	proposed bool     // submitted to BFT by this node as primary
	timeout  deadline // the armed soft or hard timeout, in the layer's queue
	phase    timerPhase
	viaPeer  bool // entered R via a peer broadcast (counts toward limits)
}

func newReqState(req pbft.Request) *reqState {
	st := &reqState{req: req}
	st.timeout.st = st
	return st
}

// Layer is the ZugChain communication layer for one node. Safe for
// concurrent use: bus readers, the PBFT runner, and the deadline queue's
// timer all call in.
type Layer struct {
	cfg Config
	kp  *crypto.KeyPair
	reg *crypto.Registry
	bft BFT
	tr  transport.Transport
	clk clock.Clock
	rec Recorder

	mu      sync.Mutex
	primary crypto.NodeID
	view    uint64
	open    map[crypto.Digest]*reqState // the request queue R
	decided *decidedWindow              // the inLog sliding window
	perNode map[crypto.NodeID]int       // open-via-broadcast counts per origin
	closed  bool

	// deadlines holds every armed timeout: each open request's soft or
	// hard timeout and the batch delay, behind one clock timer.
	deadlines *deadlineQueue

	// Primary-side request coalescing (MaxBatch > 1): records admitted
	// while primary accumulate here instead of being proposed one at a
	// time, and flush as a single batched proposal when the batch fills
	// or MaxBatchDelay expires.
	batch      []pbft.Request
	batchDelay deadline
	batchT0    time.Time // when the oldest record entered the batch
	lastFlush  time.Time // paces partial flushes MaxBatchDelay apart

	counters *metrics.Counters
	latency  *metrics.Latency
	batches  *metrics.BatchCounters
	tracer   *obsv.Tracer                // nil = lifecycle tracing off
	received map[crypto.Digest]time.Time // for latency measurement
}

// New creates the layer. tr must be the virtual channel carrying ZCRequest
// messages (wire tag range 0x30–0x3f); bft is the ordering runner; rec
// receives LOG up-calls.
func New(cfg Config, kp *crypto.KeyPair, reg *crypto.Registry, bft BFT, tr transport.Transport, clk clock.Clock, rec Recorder) *Layer {
	cfg.applyDefaults()
	l := &Layer{
		cfg:      cfg,
		kp:       kp,
		reg:      reg,
		bft:      bft,
		tr:       tr,
		clk:      clk,
		rec:      rec,
		open:     make(map[crypto.Digest]*reqState),
		decided:  newDecidedWindow(cfg.WindowSeqs),
		perNode:  make(map[crypto.NodeID]int),
		counters: &metrics.Counters{},
		latency:  &metrics.Latency{},
		batches:  &metrics.BatchCounters{},
		tracer:   cfg.Tracer,
		received: make(map[crypto.Digest]time.Time),
	}
	l.deadlines = newDeadlineQueue(clk, l.onDeadline)
	l.lastFlush = clk.Now()
	tr.SetHandler(l.onTransport)
	return l
}

// Counters exposes the layer's event counters (proposals, duplicates,
// broadcasts, suspects) for the evaluation harness.
func (l *Layer) Counters() *metrics.Counters { return l.counters }

// Latency exposes receive-to-decide latencies.
func (l *Layer) Latency() *metrics.Latency { return l.latency }

// Batches exposes the primary-side batching counters (flush sizes, flush
// triggers, batching wait times).
func (l *Layer) Batches() *metrics.BatchCounters { return l.batches }

// OpenRequests reports the current size of the request queue R.
func (l *Layer) OpenRequests() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.open)
}

// Payload implements pbft.PayloadSource: the payload with digest d if it is
// open in R, which is where a backup holds the bus records its primary is
// about to propose. R's payload slices are never mutated once admitted, so
// the rebuilt proposal — and the block it ends up in — may alias them.
func (l *Layer) Payload(d crypto.Digest) ([]byte, bool) {
	var payload []byte
	l.mu.Lock()
	st, ok := l.open[d]
	if ok {
		payload = st.req.Payload
	}
	l.mu.Unlock()
	if ok {
		l.counters.PayloadHits.Add(1)
	} else {
		l.counters.PayloadMisses.Add(1)
	}
	return payload, ok
}

// WindowEntry is one dedup-window entry: payload digest Digest was decided
// at sequence Seq. Used by the node's crash-recovery path to checkpoint and
// restore the window.
type WindowEntry struct {
	Digest crypto.Digest
	Seq    uint64
}

// WindowSnapshot appends to dst the dedup-window entries with Seq <= maxSeq
// (all entries when maxSeq is 0), in decide order. The node persists this
// alongside a stable checkpoint: entries at or below the checkpoint cannot
// be re-derived by PBFT re-execution after a restart, so without them a
// restarted replica would re-LOG payloads it already logged.
func (l *Layer) WindowSnapshot(dst []WindowEntry, maxSeq uint64) []WindowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.decided.order {
		if maxSeq != 0 && e.seq > maxSeq {
			continue
		}
		if cur, ok := l.decided.entries[e.digest]; !ok || cur != e.seq {
			continue // superseded by a later re-log of the same payload
		}
		dst = append(dst, WindowEntry{Digest: e.digest, Seq: e.seq})
	}
	return dst
}

// RestoreWindow seeds the dedup window from entries whose payloads are
// already durably logged: WAL/chain recovery at startup, and installed
// state-transfer blocks mid-run. Entries should be sorted by Seq.
//
// A restored record is closed exactly as a decided one is: it leaves R with
// its timers, its latency stamp and any unflushed batch. Left open, its
// timers would re-broadcast it until the window slid past it, and it would
// then be ordered and logged a second time.
func (l *Layer) RestoreWindow(entries []WindowEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range entries {
		l.decided.add(e.Digest, e.Seq)
		if st, ok := l.open[e.Digest]; ok {
			l.removeLocked(e.Digest, st)
		}
		delete(l.received, e.Digest)
	}
	if len(l.batch) == 0 {
		return
	}
	kept := l.batch[:0]
	for _, req := range l.batch {
		if !l.decided.contains(req.PayloadDigest()) {
			kept = append(kept, req)
		}
	}
	l.batch = kept
	if len(kept) == 0 {
		l.resetBatchLocked()
	}
}

// Close stops all timers. The layer must not be used afterwards.
func (l *Layer) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.deadlines.stop()
	l.open = make(map[crypto.Digest]*reqState)
	l.batch = nil
}

// OnBusRecord is RECEIVE of Table I ②: a parsed, filtered record read from
// input source (bus) src. Algorithm 1 lines 5–11.
func (l *Layer) OnBusRecord(src int, payload []byte) {
	digest := crypto.Hash(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if l.decided.contains(digest) {
		// Already logged: nothing to do (ln. 7 inLog check; for backups
		// an already-decided request needs no timer either).
		l.counters.AddDuplicate()
		return
	}
	if _, inR := l.open[digest]; inR {
		// Already pending (e.g. a peer broadcast arrived first); the
		// existing timers cover it.
		l.counters.AddDuplicate()
		return
	}

	st := newReqState(pbft.Request{Payload: payload})
	st.source = src
	st.origin = l.cfg.ID
	l.open[digest] = st
	l.received[digest] = l.clk.Now()
	l.tracer.BeginRecord(digest)

	if l.isPrimaryLocked() {
		l.proposeLocked(st, l.cfg.ID) // ln. 8–9
		return
	}
	l.armSoftTimeout(st) // ln. 11
}

// OnDecide is the DECIDE up-call from the BFT module. Algorithm 1 lines
// 12–20. Must be invoked in sequence-number order (the PBFT runner
// guarantees this). A batched request is unpacked and each inner record
// runs through the full per-record decide logic — every record keeps its
// own origin, signature, duplicate check and LOG up-call, so Algorithm 1's
// semantics are unchanged by batching; the records merely share one
// agreement slot.
func (l *Layer) OnDecide(seq uint64, req pbft.Request) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if req.Batch {
		items, err := pbft.DecodeBatch(req.Payload)
		if err != nil {
			// The inner records were signature-checked before agreement,
			// but a faulty primary could still propose a structurally
			// invalid batch; deciding it proves the primary built it.
			l.bft.Suspect(l.primary)
			return
		}
		// A duplicate inside the batch makes decideOneLocked suspect the
		// primary (the window already holds the digest at this seq), but
		// the remaining honest records are still logged.
		for i := range items {
			l.decideOneLocked(seq, items[i])
		}
		return
	}
	l.decideOneLocked(seq, req)
}

// decideOneLocked applies Algorithm 1 lines 12–20 to a single decided
// record (a plain request, or one record of a batch).
func (l *Layer) decideOneLocked(seq uint64, req pbft.Request) {
	digest := req.PayloadDigest()

	if st, ok := l.open[digest]; ok {
		if !st.proposed {
			// Our own copy of this payload never had to be ordered:
			// one duplicate avoided by the filtering.
			l.counters.AddDuplicate()
		}
		l.removeLocked(digest, st) // ln. 13–16: delete from R, cancel timers
	}
	if t0, ok := l.received[digest]; ok {
		l.latency.Record(l.clk.Now().Sub(t0))
		delete(l.received, digest)
	}

	if l.decided.contains(digest) {
		// ln. 17–18: the primary proposed a duplicate inside the sliding
		// window — it is not filtering correctly.
		l.counters.AddDuplicate()
		l.bft.Suspect(l.primary)
		return
	}

	// ln. 20: append to the log with the id of the origin node.
	l.decided.add(digest, seq)
	l.counters.AddRequest()
	l.rec.Log(seq, req.Origin, req.Payload, req.Sig)
	l.tracer.FinishRecord(digest, seq)
}

// OnNewPrimary is the NEWPRIMARY up-call after a view change. Algorithm 1
// lines 36–43.
func (l *Layer) OnNewPrimary(view uint64, primary crypto.NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if view == l.view && primary == l.primary {
		// Re-announcement of the view we already operate in — the BFT
		// module's startup announcement. No earlier primary exists whose
		// failure could have swallowed a proposal, and resetting the
		// proposed flags here would re-submit records that are already
		// queued inside this same engine: each would be ordered twice,
		// tripping the duplicate filter and making every replica suspect
		// an honest primary.
		return
	}
	l.view = view
	l.primary = primary
	// A fresh pacing interval, so the re-proposals below open a batch
	// rather than the first of them going out alone.
	l.lastFlush = l.clk.Now()
	// Drop any half-assembled batch: its records are still in R with
	// proposed reset below, so the loop re-proposes (or re-arms timers
	// for) every one of them under the new primary.
	l.resetBatchLocked()
	for digest, st := range l.open {
		l.deadlines.cancel(&st.timeout)
		st.phase = phaseNone
		st.proposed = false
		if l.isPrimaryLocked() {
			if !l.decided.contains(digest) {
				l.proposeLocked(st, st.origin) // ln. 39–41
			}
		} else {
			l.armSoftTimeout(st) // ln. 43
		}
	}
	// Re-proposed records already waited through a view change; flush
	// them immediately rather than letting the delay timer add latency.
	l.flushBatchLocked(metrics.FlushSize)
}

// onTransport handles ZCRequest messages from peers: broadcasts after soft
// timeouts and forwards toward the primary. Algorithm 1 lines 25–32. The
// Ed25519 check runs on the verify pool when one is configured, so a flood
// of peer requests parallelizes across cores instead of serializing the
// transport delivery goroutine; the rest of the admission logic runs after
// verification in either case.
func (l *Layer) onTransport(from crypto.NodeID, data []byte) {
	l.counters.AddReceived(len(data))
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	zc, ok := msg.(*ZCRequest)
	if !ok {
		return
	}
	if zc.Req.Batch {
		// Peers broadcast and forward individual records only; batches
		// exist solely as primary proposals inside PBFT. A batch-flagged
		// peer request is faulty input.
		return
	}
	if l.cfg.VerifyPool != nil {
		l.cfg.VerifyPool.Submit(l.verifyAndAdmit, from, zc)
		return
	}
	l.verifyAndAdmit(from, zc)
}

// verifyAndAdmit checks a peer request's origin signature and admits it;
// msg is the *ZCRequest onTransport decoded.
func (l *Layer) verifyAndAdmit(_ crypto.NodeID, msg any) {
	req := msg.(*ZCRequest).Req
	l.counters.AddVerification()
	if err := pbft.VerifyRequest(&req, l.reg); err != nil {
		return // unauthenticated peer request
	}
	l.admitPeerRequest(req)
}

// admitPeerRequest continues Algorithm 1 lines 25–32 for a peer request
// whose signature has been verified.
func (l *Layer) admitPeerRequest(req pbft.Request) {
	digest := req.PayloadDigest()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if l.decided.contains(digest) {
		l.counters.AddDuplicate()
		return // ln. 26–27: already in the log
	}

	if st, inR := l.open[digest]; inR {
		// Already pending. If we are the primary and have not proposed it
		// (it entered R before we became primary, and OnNewPrimary has
		// run — normally impossible — or it arrived from the bus while
		// not primary), the proposal path below covers it; otherwise the
		// existing timers cover it.
		if l.isPrimaryLocked() && !st.proposed {
			l.proposeLocked(st, st.origin)
		}
		return
	}

	// New to us: admitted subject to the per-origin limit (fault (iii)).
	if l.perNode[req.Origin] >= l.cfg.MaxOpenPerOrigin {
		l.counters.AddDuplicate() // accounted as filtered load
		return
	}

	st := newReqState(req)
	st.origin = req.Origin
	st.viaPeer = true
	l.open[digest] = st
	l.perNode[req.Origin]++
	l.received[digest] = l.clk.Now()
	l.tracer.BeginRecord(digest)

	if l.isPrimaryLocked() {
		l.proposeLocked(st, req.Origin) // ln. 28–29: keep broadcaster's id
		return
	}
	// ln. 31–32: arm a hard timeout and forward toward the primary so a
	// faulty broadcaster that skipped the primary cannot cause a false
	// suspicion.
	l.armHardTimeout(st)
	l.forwardLocked(req)
}

// --- internal helpers (callers hold l.mu) ---

func (l *Layer) isPrimaryLocked() bool { return l.primary == l.cfg.ID }

// proposeLocked signs (if the request is our own bus input) and submits to
// the BFT module — directly, or via the coalescing batch when batching is
// enabled.
func (l *Layer) proposeLocked(st *reqState, origin crypto.NodeID) {
	if st.proposed {
		return
	}
	st.proposed = true
	if st.req.Sig == nil {
		// Our own bus input: authenticate and include our node id (ln. 8).
		pbft.SignRequest(&st.req, l.kp)
		st.origin = l.cfg.ID
		l.counters.AddSignature()
	}
	if l.tracer != nil { // guard: PayloadDigest hashes when not cached
		l.tracer.StampRecord(st.req.PayloadDigest(), obsv.PhaseBatch)
	}
	_ = origin // the id travels inside the signed request
	if l.cfg.MaxBatch > 1 {
		l.enqueueBatchLocked(st.req)
		return
	}
	l.bft.Propose(st.req)
}

// enqueueBatchLocked adds a signed record to the open batch, flushing when
// it fills. A record that opens the batch is proposed at once when the
// last flush lies MaxBatchDelay or more behind; otherwise the delay timer
// fires MaxBatchDelay after that flush. No record waits longer than
// MaxBatchDelay, partial batches go out at most once per MaxBatchDelay,
// and under load, when the timer is always pending, batches fill as before.
func (l *Layer) enqueueBatchLocked(req pbft.Request) {
	l.batch = append(l.batch, req)
	if len(l.batch) >= l.cfg.MaxBatch {
		l.flushBatchLocked(metrics.FlushSize)
		return
	}
	if len(l.batch) == 1 {
		l.batchT0 = l.clk.Now()
		wait := l.lastFlush.Add(l.cfg.MaxBatchDelay).Sub(l.batchT0)
		if wait <= 0 {
			l.flushBatchLocked(metrics.FlushIdle)
			return
		}
		l.deadlines.arm(&l.batchDelay, wait)
	}
}

// flushBatchLocked proposes the open batch as one request. A single-record
// batch degrades to a plain proposal — byte-identical to unbatched
// operation. trigger records what fired, for the metrics.
func (l *Layer) flushBatchLocked(trigger metrics.FlushTrigger) {
	items := l.resetBatchLocked()
	if len(items) == 0 {
		return
	}
	l.lastFlush = l.clk.Now()
	l.batches.RecordFlush(len(items), l.lastFlush.Sub(l.batchT0), trigger)
	if len(items) == 1 {
		l.bft.Propose(items[0])
		return
	}
	req := pbft.Request{Payload: pbft.EncodeBatch(items), Batch: true}
	// The batch envelope is our proposal: sign it as ourselves. The inner
	// records keep their own origins and signatures.
	pbft.SignRequest(&req, l.kp)
	l.counters.AddSignature()
	l.bft.Propose(req)
}

// resetBatchLocked detaches and returns the open batch, cancelling its
// delay.
func (l *Layer) resetBatchLocked() []pbft.Request {
	l.deadlines.cancel(&l.batchDelay)
	items := l.batch
	l.batch = nil
	return items
}

// armSoftTimeout starts the backup's wait for the primary (ln. 11).
func (l *Layer) armSoftTimeout(st *reqState) {
	st.phase = phaseSoft
	l.deadlines.arm(&st.timeout, l.cfg.SoftTimeout)
}

// armHardTimeout starts the censorship-detection wait (ln. 23, 31).
func (l *Layer) armHardTimeout(st *reqState) {
	st.phase = phaseHard
	l.deadlines.arm(&st.timeout, l.cfg.HardTimeout)
}

// onDeadline runs when the deadline queue's clock timer fires: every
// timeout that is due fires in deadline order.
func (l *Layer) onDeadline(gen uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || !l.deadlines.fired(gen) {
		return
	}
	for d := l.deadlines.popDue(); d != nil; d = l.deadlines.popDue() {
		switch {
		case d.st == nil:
			l.flushBatchLocked(metrics.FlushDelay)
		case d.st.phase == phaseSoft:
			l.softTimeoutLocked(d.st)
		case d.st.phase == phaseHard:
			l.hardTimeoutLocked(d.st)
		}
	}
	l.deadlines.done()
}

// OnPrePrepared implements the §III-C optimization: the primary's accepted
// preprepare indicates the request will be ordered, so the soft timeout can
// be cancelled early — saving the needless broadcast. The hard timeout
// replaces it, keeping censorship detection intact in case the preprepare
// never commits.
func (l *Layer) OnPrePrepared(payloadDigest crypto.Digest) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.open[payloadDigest]
	if !ok || l.closed || st.phase != phaseSoft {
		return
	}
	l.armHardTimeout(st)
}

// softTimeoutLocked implements lines 21–24: sign, broadcast, escalate to
// the hard timeout. A decided request has left the queue with R, so st is
// still open.
func (l *Layer) softTimeoutLocked(st *reqState) {
	if st.req.Sig == nil {
		pbft.SignRequest(&st.req, l.kp)
		st.origin = l.cfg.ID
		l.counters.AddSignature()
	}
	l.armHardTimeout(st)
	data := wire.Marshal(&ZCRequest{Req: st.req})
	l.counters.AddSent(len(data))
	_ = l.tr.Broadcast(data)
}

// hardTimeoutLocked implements lines 33–35: the request is still not in
// the log; suspect the primary.
func (l *Layer) hardTimeoutLocked(st *reqState) {
	st.phase = phaseNone
	l.bft.Suspect(l.primary)
}

// forwardLocked sends the request directly to the primary (ln. 32).
func (l *Layer) forwardLocked(req pbft.Request) {
	if l.primary == l.cfg.ID {
		return
	}
	data := wire.Marshal(&ZCRequest{Req: req})
	l.counters.AddSent(len(data))
	_ = l.tr.Send(l.primary, data)
}

// removeLocked deletes a request from R and cancels its timeout.
func (l *Layer) removeLocked(digest crypto.Digest, st *reqState) {
	l.deadlines.cancel(&st.timeout)
	st.phase = phaseNone
	if st.viaPeer {
		if l.perNode[st.origin] > 0 {
			l.perNode[st.origin]--
		}
	}
	delete(l.open, digest)
}
