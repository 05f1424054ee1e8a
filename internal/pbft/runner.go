package pbft

import (
	"sync"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/obsv"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// Application receives the engine's up-calls. All methods are invoked from
// the runner's event loop; implementations may call back into the Runner
// (Propose, Suspect, ...) freely — those calls enqueue and never block.
type Application interface {
	// Deliver is the DECIDE up-call: req was totally ordered at seq.
	Deliver(seq uint64, req Request)
	// CheckpointDigest must return the application state digest after
	// executing seq — in ZugChain, the hash of the block ending at seq.
	CheckpointDigest(seq uint64) crypto.Digest
	// StableCheckpoint reports a checkpoint that gathered 2f+1 signatures.
	StableCheckpoint(proof CheckpointProof)
	// NewPrimary is the NEWPRIMARY up-call after a view becomes active.
	NewPrimary(view uint64, primary crypto.NodeID)
	// StateTransferNeeded reports that this replica must fetch blocks up
	// to seq out of band.
	StateTransferNeeded(seq uint64, digest crypto.Digest)
}

// PrePrepareObserver is an optional extension of Application: when the
// application implements it, the runner reports accepted preprepares so the
// communication layer can downgrade soft timeouts (§III-C optimization).
type PrePrepareObserver interface {
	OnPrePrepared(seq uint64, payloadDigest crypto.Digest)
}

// RunnerConfig parameterizes a Runner.
type RunnerConfig struct {
	// BaseViewTimeout is the view-change progress timeout; it doubles per
	// escalation attempt (capped at 10 doublings).
	BaseViewTimeout time.Duration
	// VerifyPool, when non-nil, runs inbound signature checks on the
	// pool's workers so the event loop only ever sees pre-verified
	// messages (Engine.ReceiveVerified). With a nil pool verification
	// happens on the transport's delivery goroutine — still off the event
	// loop, just without cross-message parallelism.
	VerifyPool *crypto.VerifyPool
	// Persister, when non-nil, receives the durable protocol records of
	// each action batch before any of its messages are sent (the
	// Castro–Liskov log-before-send rule). A persist failure permanently
	// mutes the replica's outbound protocol traffic: it keeps receiving
	// and delivering, but a replica that cannot log its votes must not
	// cast them.
	Persister Persister
	// Tracer, when non-nil, receives slot-level lifecycle stamps (the
	// preprepare/prepared/committed transitions of each agreement slot) for
	// the observability layer. Nil disables the stamps.
	Tracer *obsv.Tracer
	// Journal, when non-nil, records consensus events (view changes,
	// primary elections, persist failures) for /eventz.
	Journal *obsv.Journal
}

// Runner owns an Engine and pumps it: inbound transport messages, local
// commands, and timer events are serialized into engine calls, and the
// resulting actions are executed. It is the only goroutine touching the
// engine, preserving the engine's single-threaded contract.
type Runner struct {
	engine *Engine
	tr     transport.Transport
	clk    clock.Clock
	app    Application
	cfg    RunnerConfig

	// payloads is app as a PayloadSource, nil when app is not one: then
	// proposals go out in full and inbound references are always fetched.
	payloads PayloadSource

	// verifyFn is verifyAndDeliver bound once, so handing an inbound
	// message to the verify pool allocates no closure.
	verifyFn func(from crypto.NodeID, msg any)

	mu     sync.Mutex
	queue  []mail
	spare  []mail // the loop's drained batch, reused as the next queue
	wake   chan struct{}
	closed bool

	stop sync.Once
	quit chan struct{}
	done chan struct{}

	viewTimer     clock.Timer
	viewTimerView uint64

	persistBroken bool            // sticky: a Persist failure mutes outbound sends
	persistRecs   []PersistRecord // persistBatch's buffer, reused per batch
}

// NewRunner wires an engine to a transport, clock, and application.
func NewRunner(engine *Engine, tr transport.Transport, clk clock.Clock, app Application, cfg RunnerConfig) *Runner {
	if cfg.BaseViewTimeout <= 0 {
		cfg.BaseViewTimeout = 500 * time.Millisecond
	}
	r := &Runner{
		engine: engine,
		tr:     tr,
		clk:    clk,
		app:    app,
		cfg:    cfg,
		wake:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	r.payloads, _ = app.(PayloadSource)
	r.verifyFn = r.verifyAndDeliver
	tr.SetHandler(r.onMessage)
	return r
}

// mail is one mailbox entry: a local command, or a verified message from
// a peer. Messages travel as values rather than closures, so the receive
// path enqueues without allocating.
type mail struct {
	cmd  func() []Action // nil for a message
	from crypto.NodeID
	msg  wire.Message
}

// Start launches the event loop and announces the initial primary.
func (r *Runner) Start() {
	r.enqueue(mail{cmd: func() []Action { return r.engine.Start() }})
	go r.loop()
}

// Stop terminates the event loop and waits for it to exit.
func (r *Runner) Stop() {
	r.stop.Do(func() {
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()
		close(r.quit)
	})
	<-r.done
}

// Propose submits a request for ordering (PROPOSE down-call). Never blocks.
func (r *Runner) Propose(req Request) {
	r.enqueue(mail{cmd: func() []Action { return r.engine.Propose(req) }})
}

// Suspect reports the given node as faulty (SUSPECT down-call). Never blocks.
func (r *Runner) Suspect(id crypto.NodeID) {
	r.enqueue(mail{cmd: func() []Action { return r.engine.Suspect(id) }})
}

// Engine returns the underlying engine. Callers must only use it from
// Application callbacks (which run on the event loop) or via Inspect.
func (r *Runner) Engine() *Engine { return r.engine }

// Inspect runs f on the event loop with exclusive engine access and waits
// for it to complete — the safe way for tests and status endpoints to read
// engine state.
func (r *Runner) Inspect(f func(e *Engine)) {
	doneCh := make(chan struct{})
	r.enqueue(mail{cmd: func() []Action {
		f(r.engine)
		close(doneCh)
		return nil
	}})
	select {
	case <-doneCh:
	case <-r.done:
	}
}

// onMessage is the transport handler: decode, verify off-loop, then
// enqueue. The engine's event loop never pays for Ed25519 — by the time a
// message reaches Engine.ReceiveVerified its envelope signature (and, for
// preprepares, the embedded request signature) has been checked on a pool
// worker or, without a pool, on this delivery goroutine. Dropping garbage
// here also means Byzantine flooding burns pool workers, not the ordering
// path. Pool tasks may complete in any order; PBFT tolerates reordered
// delivery, so no resequencing is needed (see DESIGN.md).
//
// A PrePrepareRef is first rebuilt into the full PrePrepare from the
// payloads this replica already read, then checked like any PrePrepare; if
// a payload is missing, the primary is asked for the full message instead
// (DESIGN.md §3.14). An unsigned PrePrepareFetch goes straight to the
// engine, which bounds the answers. A Commit's MAC costs three SHA-256
// compressions, less than a pool hop, so it is checked right here.
//
// data is lent for this call only (transport.Handler); the decoded message
// owns copies of every byte it keeps.
func (r *Runner) onMessage(from crypto.NodeID, data []byte) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return // garbage from a Byzantine or broken peer
	}
	switch m := msg.(type) {
	case *PrePrepareFetch:
		r.enqueue(mail{from: from, msg: m})
		return
	case *Commit:
		if m.Replica != from || !r.engine.authenticCommit(m) {
			return
		}
		r.enqueue(mail{from: from, msg: m})
		return
	case *PrePrepareRef:
		if m.PrePrepare.Replica != from {
			return
		}
		pp, ok := m.hydrate(r.payloads)
		if !ok {
			_ = r.tr.Send(from, wire.Marshal(&PrePrepareFetch{View: m.PrePrepare.View, Seq: m.PrePrepare.Seq}))
			return
		}
		msg = pp
	}
	s, ok := msg.(signable)
	if !ok {
		return
	}
	if s.signer() != from {
		return // cheap reject before paying for a signature check
	}
	if r.cfg.VerifyPool != nil {
		r.cfg.VerifyPool.Submit(r.verifyFn, from, s)
		return
	}
	r.verifyAndDeliver(from, s)
}

// verifyAndDeliver checks a signed message's signatures (preVerify) and
// hands it to the event loop; forged or corrupted ones are dropped without
// waking the loop. msg is always a signable.
func (r *Runner) verifyAndDeliver(from crypto.NodeID, msg any) {
	s := msg.(signable)
	if preVerify(s, r.engine.reg) != nil {
		return
	}
	r.enqueue(mail{from: from, msg: s})
}

// enqueue appends work to the unbounded mailbox. Unbounded is deliberate:
// application callbacks run on the loop and may enqueue (Propose after
// NewPrimary, Suspect after a duplicate Decide); a bounded channel could
// deadlock the loop against itself. Inbound flooding is bounded above this
// layer by the communication layer's per-node open-request limit.
func (r *Runner) enqueue(m mail) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.queue = append(r.queue, m)
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *Runner) loop() {
	defer close(r.done)
	for {
		var timerC <-chan time.Time
		if r.viewTimer != nil {
			timerC = r.viewTimer.C()
		}
		select {
		case <-r.quit:
			if r.viewTimer != nil {
				r.viewTimer.Stop()
			}
			return
		case <-r.wake:
			for {
				r.mu.Lock()
				if len(r.queue) == 0 {
					r.mu.Unlock()
					break
				}
				batch := r.queue
				r.queue = r.spare[:0]
				r.mu.Unlock()
				for _, m := range batch {
					if m.cmd != nil {
						r.execute(m.cmd())
					} else {
						r.execute(r.engine.ReceiveVerified(m.from, m.msg))
					}
				}
				clear(batch) // hold no message past its turn
				r.spare = batch
			}
		case <-timerC:
			view := r.viewTimerView
			r.viewTimer = nil
			r.execute(r.engine.OnViewTimer(view))
		}
	}
}

// encodeAction returns the wire bytes for an outbound action, preferring the
// encoding cached at signing time (signedBroadcast) over a re-marshal.
func encodeAction(msg wire.Message, cached []byte) []byte {
	if cached != nil {
		return cached
	}
	return wire.Marshal(msg)
}

// broadcastProposal sends this primary's own proposal by reference: every
// backup read the payload from the bus itself and rebuilds the full
// message (DESIGN.md §3.14). Backups that fetched get the full encoding
// instead (Engine.proposalInline).
func (r *Runner) broadcastProposal(pp *PrePrepare, full []byte) {
	ref := newPrePrepareRef(pp)
	if ref == nil {
		_ = r.tr.Broadcast(full)
		return
	}
	refData := wire.Marshal(ref)
	if len(r.engine.inline) == 0 {
		_ = r.tr.Broadcast(refData)
		return
	}
	for _, id := range r.engine.cfg.Replicas {
		switch {
		case id == r.engine.cfg.ID:
		case r.engine.proposalInline(id, pp.Seq):
			_ = r.tr.Send(id, full)
		default:
			_ = r.tr.Send(id, refData)
		}
	}
}

// persistBatch appends to recs the durable records one action batch owes
// the log-before-send rule: the digest of every outbound phase vote,
// plus one view-state record whenever the batch shows the view machinery
// moved (a ViewChange or NewView leaving, or a view becoming active). It
// runs on the event loop, so reading engine fields directly is safe — and
// necessary: by the time actions are emitted the engine has already applied
// their state changes, so its fields are exactly what must be persisted.
func (r *Runner) persistBatch(recs []PersistRecord, actions []Action) []PersistRecord {
	viewDirty := false
	for _, a := range actions {
		var msg wire.Message
		switch act := a.(type) {
		case SendAction:
			if _, resend := act.Msg.(*PrePrepare); resend {
				continue // a fetch reply: the proposal was logged when broadcast
			}
			msg = act.Msg
		case BroadcastAction:
			msg = act.Msg
		case NewPrimaryAction:
			viewDirty = true
			continue
		default:
			continue
		}
		switch m := msg.(type) {
		case *PrePrepare:
			recs = append(recs, PersistRecord{
				Kind: PersistPrePrepare, View: m.View, Seq: m.Seq, Digest: r.engine.proposalDigest(m),
			})
		case *Prepare:
			recs = append(recs, PersistRecord{
				Kind: PersistPrepare, View: m.View, Seq: m.Seq, Digest: m.Digest,
			})
		case *Commit:
			recs = append(recs, PersistRecord{
				Kind: PersistCommit, View: m.View, Seq: m.Seq, Digest: m.Digest,
			})
			// An outbound commit means the slot just reached prepared: the
			// certificate (PrePrepare + 2f Prepares) goes to disk with it,
			// so a restarted replica's ViewChange can still vouch for every
			// slot it prepared pre-crash (the P set of §4.4).
			if cert := r.engine.PreparedCert(m.Seq); cert != nil && cert.PrePrepare.View == m.View {
				recs = append(recs, PersistRecord{
					Kind: PersistPreparedCert, View: m.View, Seq: m.Seq,
					Digest: m.Digest, Cert: cert,
				})
			}
		case *ViewChange, *NewView:
			viewDirty = true
		}
	}
	if viewDirty {
		view, sentVCFor, changing := r.engine.ViewState()
		recs = append(recs, PersistRecord{
			Kind: PersistView, View: view, Seq: sentVCFor, InViewChange: changing,
		})
	}
	return recs
}

// traceOutbound maps an outbound protocol vote to the slot-lifecycle stamp
// it implies: a PrePrepare leaving means the primary opened the slot, a
// Prepare leaving means this replica accepted the slot's preprepare, and a
// Commit leaving means the slot gathered its prepared certificate. Stamps
// are slot-keyed; the tracer joins them into record traces at delivery.
func (r *Runner) traceOutbound(msg wire.Message) {
	switch m := msg.(type) {
	case *PrePrepare:
		r.cfg.Tracer.StampSlot(m.Seq, obsv.PhasePrePrepare)
	case *Prepare:
		r.cfg.Tracer.StampSlot(m.Seq, obsv.PhasePrePrepare)
	case *Commit:
		r.cfg.Tracer.StampSlot(m.Seq, obsv.PhasePrepare)
	case *ViewChange:
		r.cfg.Journal.Record(obsv.Event{
			Kind: obsv.EventViewChangeSent, View: m.NewView, Seq: m.StableSeq, Node: m.Replica,
		})
	}
}

// execute performs the engine's actions, feeding results of application
// callbacks straight back into the engine. When a Persister is configured,
// the batch's protocol records are made durable before any message is sent.
func (r *Runner) execute(actions []Action) {
	if r.cfg.Persister != nil && !r.persistBroken {
		r.persistRecs = r.persistBatch(r.persistRecs[:0], actions)
		if recs := r.persistRecs; len(recs) > 0 {
			if err := r.cfg.Persister.Persist(recs); err != nil {
				r.persistBroken = true
				r.cfg.Journal.Record(obsv.Event{
					Kind:   obsv.EventPersistFailure,
					Detail: "protocol WAL append failed; outbound votes muted: " + err.Error(),
				})
			}
		}
	}
	for _, a := range actions {
		switch act := a.(type) {
		case SendAction:
			if r.persistBroken {
				continue
			}
			r.traceOutbound(act.Msg)
			_ = r.tr.Send(act.To, encodeAction(act.Msg, act.Encoded))
		case BroadcastAction:
			if r.persistBroken {
				continue
			}
			r.traceOutbound(act.Msg)
			if act.PerPeer != nil {
				for _, s := range act.PerPeer {
					_ = r.tr.Send(s.To, s.Encoded)
				}
				continue
			}
			if pp, ok := act.Msg.(*PrePrepare); ok && r.payloads != nil {
				r.broadcastProposal(pp, encodeAction(act.Msg, act.Encoded))
				continue
			}
			_ = r.tr.Broadcast(encodeAction(act.Msg, act.Encoded))
		case DeliverAction:
			r.cfg.Tracer.StampSlot(act.Seq, obsv.PhaseCommit)
			r.app.Deliver(act.Seq, act.Req)
		case CheckpointNeededAction:
			digest := r.app.CheckpointDigest(act.Seq)
			r.execute(r.engine.Checkpoint(act.Seq, digest))
		case StableCheckpointAction:
			r.app.StableCheckpoint(act.Proof)
		case NewPrimaryAction:
			r.cfg.Journal.Record(obsv.Event{
				Kind: obsv.EventNewPrimary, View: act.View, Node: act.Primary,
			})
			r.app.NewPrimary(act.View, act.Primary)
		case StartViewTimerAction:
			if r.viewTimer != nil {
				r.viewTimer.Stop()
			}
			shift := act.Attempt
			if shift > 10 {
				shift = 10
			}
			r.viewTimerView = act.View
			r.viewTimer = r.clk.NewTimer(r.cfg.BaseViewTimeout << shift)
		case StopViewTimerAction:
			if r.viewTimer != nil {
				r.viewTimer.Stop()
				r.viewTimer = nil
			}
		case PrePreparedAction:
			if obs, ok := r.app.(PrePrepareObserver); ok {
				obs.OnPrePrepared(act.Seq, act.PayloadDigest)
			}
		case StateTransferNeededAction:
			r.app.StateTransferNeeded(act.TargetSeq, act.Digest)
		}
	}
}
