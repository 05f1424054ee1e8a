// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov, OSDI'99) as the ordering core of ZugChain: the three-phase
// preprepare/prepare/commit protocol, checkpointing, and the view change
// subprotocol. The engine exposes the interface of Table I of the
// paper — PROPOSE and SUSPECT down-calls, DECIDE (DeliverAction) and
// NEWPRIMARY (NewPrimaryAction) up-calls — so the ZugChain communication
// layer can implement primary-aware filtering and censorship detection on
// top of it.
//
// The engine is a pure, single-threaded state machine: all inputs are method
// calls, all outputs are Actions. The Runner (runner.go) pumps it against a
// transport and a clock.
package pbft

import (
	"fmt"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// DefaultCheckpointInterval matches the paper's evaluation setup: a
// checkpoint every 10 agreement slots.
const DefaultCheckpointInterval = 10

// Config parameterizes an Engine.
type Config struct {
	// ID is this replica.
	ID crypto.NodeID
	// Replicas lists all replica IDs in ascending order; the primary of
	// view v is Replicas[v mod n].
	Replicas []crypto.NodeID
	// CheckpointInterval is the number of executed slots per checkpoint;
	// ZugChain's checkpoint digest is the hash of the block ending at the
	// checkpoint slot (§III-C).
	CheckpointInterval uint64
	// WatermarkWindow bounds how far ordering may run ahead of the last
	// stable checkpoint. Defaults to two checkpoint intervals.
	WatermarkWindow uint64
}

func (c *Config) applyDefaults() {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = DefaultCheckpointInterval
	}
	if c.WatermarkWindow == 0 {
		c.WatermarkWindow = 2 * c.CheckpointInterval
	}
}

// F returns the number of tolerated Byzantine replicas for n = len(Replicas).
func (c *Config) F() int { return (len(c.Replicas) - 1) / 3 }

// Quorum returns the 2f+1 quorum size.
func (c *Config) Quorum() int { return 2*c.F() + 1 }

// instance tracks one sequence number's progress through the three phases.
type instance struct {
	view       uint64
	seq        uint64
	digest     crypto.Digest
	preprepare *PrePrepare
	prepares   map[crypto.NodeID]*Prepare
	commits    map[crypto.NodeID]*Commit
	prepared   bool
	committed  bool
	sentCommit bool
}

// Engine is the PBFT state machine for one replica.
type Engine struct {
	cfg Config
	kp  *crypto.KeyPair
	reg *crypto.Registry

	// macs holds the pairwise Commit MAC key shared with each other
	// replica (auth.go). It is fixed at NewEngine, so delivery goroutines
	// may read it.
	macs map[crypto.NodeID]*crypto.MACKey

	view     uint64
	nextSeq  uint64 // next sequence number this primary assigns
	lowWater uint64 // last stable checkpoint sequence number
	executed uint64 // last delivered sequence number

	log map[uint64]*instance
	// checkpoints holds the Checkpoint votes for checkpoint seqs at most
	// two watermark windows above the low watermark; ahead holds, per
	// replica, only its newest vote beyond that. Both stay bounded
	// whatever a Byzantine replica signs.
	checkpoints map[uint64]map[crypto.NodeID]*Checkpoint
	ahead       map[crypto.NodeID]*Checkpoint
	myDigests   map[uint64]crypto.Digest // state digests this replica computed
	stable      CheckpointProof

	// certs holds, per sequence number above the low watermark, the
	// prepared certificate from the highest view in which that slot
	// prepared. It is the P set of §4.4: unlike the live instance log —
	// which installNewView discards — certificates must survive view
	// changes until a stable checkpoint covers them, or a second view
	// change could null a slot the quorum already executed.
	certs map[uint64]*PreparedProof

	// pendingProposals holds this primary's proposals waiting for watermark
	// space. They belong to the view they were made in: installNewView
	// drops them, since the layer above re-proposes whatever is still open
	// on NEWPRIMARY, and a queue that outlived its view would re-propose
	// requests decided since, possibly after they left the layer's dedup
	// window (a double LOG).
	pendingProposals []Request

	inViewChange bool
	vcs          map[uint64]map[crypto.NodeID]*ViewChange
	sentVCFor    uint64 // highest view this replica sent a ViewChange for
	vcAttempts   int

	// Crash-recovery state (see persist.go). pinned maps slots this
	// replica voted on before a crash to the digest it vouched for (and the
	// strongest vote kind, so rotation snapshots can restate the pin
	// faithfully), valid while view == pinnedView. lastNewView retains the
	// certificate that installed the current view so it can be re-sent to
	// replicas that missed it; helped rate-limits that to once per
	// (peer, view).
	pinned      map[uint64]pin
	pinnedView  uint64
	lastNewView *NewView
	helped      map[crypto.NodeID]uint64

	// Payload-reference state (ref.go): the (peer, seq) fetches this
	// primary answered, O(n · window) and retired by installStable, and
	// the peers that fetched, which get full PrePrepares.
	fetched map[fetchKey]bool
	inline  map[crypto.NodeID]*inlinePeer

	// early holds verified phase messages this replica cannot use yet:
	// those of the view it is about to enter, which can overtake that
	// view's NewView because verify-pool completions are unordered, and
	// those of the current view up to one window above the high watermark,
	// which a replica whose stable checkpoint lags the primary's sees first.
	// installNewView and installStable replay them (holdEarly). At most
	// maxEarly messages are held.
	early []earlyMsg
}

// NewEngine creates a PBFT engine. kp must belong to cfg.ID and reg must
// know every replica's public key: the pairwise Commit MAC keys are derived
// from them here, once.
func NewEngine(cfg Config, kp *crypto.KeyPair, reg *crypto.Registry) (*Engine, error) {
	cfg.applyDefaults()
	if len(cfg.Replicas) < 4 {
		return nil, fmt.Errorf("pbft: need at least 4 replicas for f>=1, got %d", len(cfg.Replicas))
	}
	found := false
	for _, id := range cfg.Replicas {
		if id == cfg.ID {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("pbft: local id %v not in replica set", cfg.ID)
	}
	if kp.ID != cfg.ID {
		return nil, fmt.Errorf("pbft: key pair belongs to %v, not %v", kp.ID, cfg.ID)
	}
	macs, err := commitKeys(cfg, kp, reg)
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:         cfg,
		kp:          kp,
		reg:         reg,
		macs:        macs,
		nextSeq:     1,
		log:         make(map[uint64]*instance),
		checkpoints: make(map[uint64]map[crypto.NodeID]*Checkpoint),
		ahead:       make(map[crypto.NodeID]*Checkpoint),
		myDigests:   make(map[uint64]crypto.Digest),
		certs:       make(map[uint64]*PreparedProof),
		vcs:         make(map[uint64]map[crypto.NodeID]*ViewChange),
	}, nil
}

// View returns the current view number.
func (e *Engine) View() uint64 { return e.view }

// Primary returns the primary of the current view.
func (e *Engine) Primary() crypto.NodeID { return e.primaryOf(e.view) }

// IsPrimary reports whether this replica is the current primary.
func (e *Engine) IsPrimary() bool { return e.Primary() == e.cfg.ID }

// InViewChange reports whether a view change is in progress.
func (e *Engine) InViewChange() bool { return e.inViewChange }

// Executed returns the last delivered sequence number.
func (e *Engine) Executed() uint64 { return e.executed }

// StableCheckpoint returns the latest stable checkpoint proof; the zero
// proof (Seq 0) represents genesis.
func (e *Engine) StableCheckpoint() CheckpointProof { return e.stable }

func (e *Engine) primaryOf(view uint64) crypto.NodeID {
	return e.cfg.Replicas[view%uint64(len(e.cfg.Replicas))]
}

// Start activates the engine, announcing the initial primary.
func (e *Engine) Start() []Action {
	return []Action{NewPrimaryAction{View: e.view, Primary: e.Primary()}}
}

// Propose is the PROPOSE down-call of Table I: the primary-co-located
// ZugChain layer submits a request for total ordering. On a backup or
// during a view change the call is a no-op; the communication layer's
// timeout machinery covers such requests.
func (e *Engine) Propose(req Request) []Action {
	if !e.IsPrimary() || e.inViewChange {
		return nil
	}
	if e.nextSeq > e.lowWater+e.cfg.WatermarkWindow {
		// Out of watermark space until the next stable checkpoint.
		e.pendingProposals = append(e.pendingProposals, req)
		return nil
	}
	return e.proposeNow(req)
}

func (e *Engine) proposeNow(req Request) []Action {
	seq := e.nextSeq
	e.nextSeq++
	pp := &PrePrepare{
		View:    e.view,
		Seq:     seq,
		Req:     req,
		Replica: e.cfg.ID,
	}
	actions := []Action{signedBroadcast(pp, e.kp)}
	actions = append(actions, e.acceptPrePrepare(pp)...)
	return actions
}

// drainProposals proposes queued requests while watermark space is
// available. Only meaningful on the primary.
func (e *Engine) drainProposals() []Action {
	var actions []Action
	for len(e.pendingProposals) > 0 &&
		e.IsPrimary() && !e.inViewChange &&
		e.nextSeq <= e.lowWater+e.cfg.WatermarkWindow {
		req := e.pendingProposals[0]
		e.pendingProposals = e.pendingProposals[1:]
		actions = append(actions, e.proposeNow(req)...)
	}
	return actions
}

// Suspect is the SUSPECT down-call of Table I: the layer above has evidence
// that the given node — effective only for the current primary — is faulty
// (hard timeout expiry or a duplicate proposal). It triggers a view change.
func (e *Engine) Suspect(id crypto.NodeID) []Action {
	if id != e.Primary() {
		// Only the primary can be voted out; other nodes' faults are
		// masked by the quorum.
		return nil
	}
	if e.sentVCFor > e.view {
		return nil // already changing away from this primary
	}
	return e.startViewChange(e.view+1, false)
}

// Receive processes one signed protocol message (or a MAC'd Commit, or an
// unsigned PrePrepareFetch) from the transport, verifying its signature or
// tag inline. Malformed or unverifiable messages are dropped (Byzantine
// senders gain nothing by sending garbage).
func (e *Engine) Receive(from crypto.NodeID, msg wire.Message) []Action {
	return e.receive(from, msg, false)
}

// ReceiveVerified processes a message whose authentication — the envelope
// signature and, for preprepares, the embedded request signature (see
// preVerify), or a Commit's MAC — was already checked off the event loop by
// the runner. The engine still enforces the cheap structural checks (sender
// == signer, views, watermarks) itself, so its single-threaded contract and
// drop semantics are unchanged; only the crypto work moved.
func (e *Engine) ReceiveVerified(from crypto.NodeID, msg wire.Message) []Action {
	return e.receive(from, msg, true)
}

func (e *Engine) receive(from crypto.NodeID, msg wire.Message, preVerified bool) []Action {
	switch m := msg.(type) {
	case *PrePrepareFetch:
		return e.onFetch(from, m) // unsigned by design
	case *Commit:
		if m.Replica != from || (!preVerified && !e.authenticCommit(m)) {
			return nil
		}
		return append(e.onCommit(m), e.maybeHelp(from, m.View)...)
	}
	s, ok := msg.(signable)
	if !ok {
		return nil
	}
	// The transport-level sender must match the claimed signer; otherwise
	// a faulty node could replay others' messages as its own channel.
	if s.signer() != from {
		return nil
	}
	if !preVerified {
		if err := verify(s, e.reg); err != nil {
			return nil
		}
	}
	switch m := msg.(type) {
	case *PrePrepare:
		return append(e.onPrePrepare(m, preVerified), e.maybeHelp(from, m.View)...)
	case *Prepare:
		return append(e.onPrepare(m), e.maybeHelp(from, m.View)...)
	case *Checkpoint:
		return e.onCheckpoint(m)
	case *ViewChange:
		return e.onViewChange(m)
	case *NewView:
		return e.onNewView(m)
	default:
		return nil
	}
}

// maybeHelp re-sends the NewView certificate that installed the current
// view to a replica still sending phase messages for an older view — the
// situation a crash-restarted replica is in when its WAL predates a view
// change the rest of the cluster completed. The certificate is broadcast
// exactly once when the view forms, so without this resend such a replica
// has no way to obtain it and stalls in its old view forever. The receiver
// validates the certificate like any NewView, so a Byzantine helper gains
// nothing. Rate limited to once per (peer, view).
func (e *Engine) maybeHelp(from crypto.NodeID, msgView uint64) []Action {
	if msgView >= e.view || e.lastNewView == nil || e.lastNewView.View != e.view {
		return nil
	}
	if e.helped == nil {
		e.helped = make(map[crypto.NodeID]uint64)
	}
	if e.helped[from] >= e.view {
		return nil
	}
	e.helped[from] = e.view
	return []Action{SendAction{To: from, Msg: e.lastNewView}}
}

// inWatermarks checks the sequence number bound (lowWater, lowWater+window].
func (e *Engine) inWatermarks(seq uint64) bool {
	return seq > e.lowWater && seq <= e.lowWater+e.cfg.WatermarkWindow
}

func (e *Engine) getInstance(seq uint64) *instance {
	inst, ok := e.log[seq]
	if !ok {
		inst = &instance{
			seq:      seq,
			prepares: make(map[crypto.NodeID]*Prepare),
			commits:  make(map[crypto.NodeID]*Commit),
		}
		e.log[seq] = inst
	}
	return inst
}

func (e *Engine) onPrePrepare(pp *PrePrepare, reqVerified bool) []Action {
	if pp.Replica != e.primaryOf(pp.View) {
		return nil
	}
	if e.inViewChange || pp.View != e.view || !e.inWatermarks(pp.Seq) {
		e.holdEarly(pp.View, pp.Seq, pp, reqVerified)
		return nil
	}
	if !reqVerified {
		// Synchronous path (no runner/pool in front): verify on the loop,
		// still batching the inner signatures in one pass.
		if err := VerifyRequestDeep(&pp.Req, e.reg); err != nil {
			return nil
		}
	}
	return e.acceptPrePrepare(pp)
}

// acceptPrePrepare records the proposal and, on backups, answers with a
// Prepare. Shared by the normal path and new-view installation.
func (e *Engine) acceptPrePrepare(pp *PrePrepare) []Action {
	digest := pp.Req.Digest()
	if len(e.pinned) > 0 && pp.View == e.pinnedView {
		// This replica voted on the slot before its last crash; the WAL
		// pinned the digest it vouched for. Accepting anything else would
		// be equivocation, so a conflicting proposal is dropped.
		if p, ok := e.pinned[pp.Seq]; ok && p.digest != digest {
			return nil
		}
	}
	inst := e.getInstance(pp.Seq)
	if inst.preprepare != nil {
		// A second proposal for an occupied slot: equivocation or a
		// retransmit. Either way the first accepted proposal stands.
		return nil
	}
	inst.view = pp.View
	inst.preprepare = pp
	inst.digest = digest

	var actions []Action
	if pp.Replica != e.cfg.ID {
		if !pp.Req.IsNull() {
			// One indication per record: a batched proposal downgrades the
			// soft timeout of every record it carries, exactly as separate
			// proposals would (§III-C optimization).
			for _, pd := range pp.Req.PayloadDigests() {
				actions = append(actions, PrePreparedAction{
					Seq:           pp.Seq,
					PayloadDigest: pd,
				})
			}
		}
		p := &Prepare{
			View:    pp.View,
			Seq:     pp.Seq,
			Digest:  digest,
			Replica: e.cfg.ID,
		}
		bc := signedBroadcast(p, e.kp)
		inst.prepares[e.cfg.ID] = p
		actions = append(actions, bc)
	}
	actions = append(actions, e.checkProgress(inst)...)
	return actions
}

func (e *Engine) onPrepare(p *Prepare) []Action {
	if e.inViewChange || p.View != e.view || !e.inWatermarks(p.Seq) {
		e.holdEarly(p.View, p.Seq, p, true)
		return nil
	}
	if p.Replica == e.primaryOf(p.View) {
		return nil // the primary's preprepare is its prepare
	}
	e.probePrepared(p)
	inst := e.getInstance(p.Seq)
	if _, dup := inst.prepares[p.Replica]; dup {
		return nil
	}
	inst.prepares[p.Replica] = p
	return e.checkProgress(inst)
}

func (e *Engine) onCommit(c *Commit) []Action {
	if e.inViewChange || c.View != e.view || !e.inWatermarks(c.Seq) {
		e.holdEarly(c.View, c.Seq, c, true)
		return nil
	}
	inst := e.getInstance(c.Seq)
	if _, dup := inst.commits[c.Replica]; dup {
		return nil
	}
	inst.commits[c.Replica] = c
	return e.checkProgress(inst)
}

// checkProgress advances an instance through prepared and committed states
// and executes whatever became executable.
func (e *Engine) checkProgress(inst *instance) []Action {
	var actions []Action

	if !inst.prepared && inst.preprepare != nil {
		// prepared: the preprepare plus 2f matching prepares from
		// distinct backups (a backup's own prepare counts).
		matching := 0
		for _, p := range inst.prepares {
			if p.Digest == inst.digest && p.View == inst.view {
				matching++
			}
		}
		if matching >= 2*e.cfg.F() {
			inst.prepared = true
			e.recordPreparedCert(inst)
		}
	}

	if inst.prepared && !inst.sentCommit {
		inst.sentCommit = true
		c := &Commit{
			View:    inst.view,
			Seq:     inst.seq,
			Digest:  inst.digest,
			Replica: e.cfg.ID,
		}
		inst.commits[e.cfg.ID] = c
		actions = append(actions, e.commitBroadcast(c))
	}

	if inst.prepared && !inst.committed {
		matching := 0
		for _, c := range inst.commits {
			if c.Digest == inst.digest && c.View == inst.view {
				matching++
			}
		}
		if matching >= e.cfg.Quorum() {
			inst.committed = true
		}
	}

	actions = append(actions, e.tryExecute()...)
	return actions
}

// tryExecute delivers committed requests in sequence order. Checkpoint
// boundaries emit a CheckpointNeededAction so the application can report the
// block digest.
func (e *Engine) tryExecute() []Action {
	var actions []Action
	for {
		inst, ok := e.log[e.executed+1]
		if !ok || !inst.committed {
			break
		}
		e.executed++
		if !inst.preprepare.Req.IsNull() {
			actions = append(actions, DeliverAction{Seq: e.executed, Req: inst.preprepare.Req})
		}
		if e.executed%e.cfg.CheckpointInterval == 0 {
			actions = append(actions, CheckpointNeededAction{Seq: e.executed})
		}
	}
	return actions
}

// Checkpoint is the application's answer to CheckpointNeededAction: the
// state digest (block hash) after executing seq. The engine broadcasts the
// signed checkpoint message and counts it toward stability.
func (e *Engine) Checkpoint(seq uint64, digest crypto.Digest) []Action {
	if seq <= e.lowWater {
		return nil
	}
	e.myDigests[seq] = digest
	c := &Checkpoint{
		Seq:         seq,
		StateDigest: digest,
		Replica:     e.cfg.ID,
	}
	actions := []Action{signedBroadcast(c, e.kp)}
	actions = append(actions, e.addCheckpoint(c)...)
	return actions
}

// onCheckpoint collects a peer's Checkpoint vote. Correct replicas vote
// only at multiples of the checkpoint interval, so the votes for seqs up to
// two watermark windows ahead take at most 2·window/interval entries. A
// vote further ahead means this replica lags by more than that: only each
// replica's newest such vote is kept, and the lagging replica adopts the
// checkpoint once 2f+1 of them agree.
func (e *Engine) onCheckpoint(c *Checkpoint) []Action {
	if c.Seq <= e.lowWater || c.Seq%e.cfg.CheckpointInterval != 0 {
		return nil
	}
	if c.Seq > e.lowWater+2*e.cfg.WatermarkWindow {
		return e.addAhead(c)
	}
	return e.addCheckpoint(c)
}

// addAhead records c as its replica's newest far-ahead vote and installs
// the checkpoint once a quorum's newest votes match it.
func (e *Engine) addAhead(c *Checkpoint) []Action {
	if cur, ok := e.ahead[c.Replica]; ok && cur.Seq >= c.Seq {
		return nil
	}
	e.ahead[c.Replica] = c
	proof := CheckpointProof{Seq: c.Seq, StateDigest: c.StateDigest}
	for _, other := range e.ahead {
		if other.Seq == c.Seq && other.StateDigest == c.StateDigest {
			proof.Checkpoints = append(proof.Checkpoints, *other)
		}
	}
	if len(proof.Checkpoints) < e.cfg.Quorum() {
		return nil
	}
	return e.installStable(proof)
}

func (e *Engine) addCheckpoint(c *Checkpoint) []Action {
	byReplica, ok := e.checkpoints[c.Seq]
	if !ok {
		byReplica = make(map[crypto.NodeID]*Checkpoint)
		e.checkpoints[c.Seq] = byReplica
	}
	if _, dup := byReplica[c.Replica]; dup {
		return nil
	}
	byReplica[c.Replica] = c

	// Stability: 2f+1 matching (seq, digest) checkpoint messages.
	count := 0
	for _, other := range byReplica {
		if other.StateDigest == c.StateDigest {
			count++
		}
	}
	if count < e.cfg.Quorum() {
		return nil
	}
	proof := CheckpointProof{Seq: c.Seq, StateDigest: c.StateDigest}
	for _, other := range byReplica {
		if other.StateDigest == c.StateDigest {
			proof.Checkpoints = append(proof.Checkpoints, *other)
		}
	}
	return e.installStable(proof)
}

// installStable advances the low watermark to a newly stable checkpoint,
// then replays the held messages the raised high watermark admits and
// proposes what waited for watermark space.
func (e *Engine) installStable(proof CheckpointProof) []Action {
	if proof.Seq <= e.lowWater {
		return nil
	}
	actions := e.advanceStable(proof)
	actions = append(actions, e.replayEarly()...)
	return append(actions, e.drainProposals()...)
}

// advanceStable moves the low watermark to proof, which must be above it,
// garbage-collects the message log, and reports divergence or lag. Unlike
// installStable it neither replays nor proposes: installNewView does both
// itself, after the NewView's own PrePrepares are in.
func (e *Engine) advanceStable(proof CheckpointProof) []Action {
	var actions []Action
	e.stable = proof
	e.lowWater = proof.Seq

	if mine, ok := e.myDigests[proof.Seq]; ok && mine != proof.StateDigest {
		// The quorum agreed on a different state: this replica's log is
		// corrupt — exactly the arbitrary-fault case ZugChain plans for.
		// Recover the authoritative blocks out of band.
		actions = append(actions, StateTransferNeededAction{
			TargetSeq: proof.Seq, Digest: proof.StateDigest,
		})
		e.executed = proof.Seq
	} else if e.executed < proof.Seq {
		// This replica lagged past a GC boundary; catch up out of band.
		actions = append(actions, StateTransferNeededAction{
			TargetSeq: proof.Seq, Digest: proof.StateDigest,
		})
		e.executed = proof.Seq
	}
	if e.nextSeq <= e.executed {
		e.nextSeq = e.executed + 1
	}

	for seq := range e.log {
		if seq <= proof.Seq {
			delete(e.log, seq)
		}
	}
	for seq := range e.checkpoints {
		if seq < proof.Seq {
			delete(e.checkpoints, seq)
		}
	}
	for id, c := range e.ahead {
		if c.Seq <= proof.Seq {
			delete(e.ahead, id)
		}
	}
	for seq := range e.myDigests {
		if seq < proof.Seq {
			delete(e.myDigests, seq)
		}
	}
	for seq := range e.certs {
		if seq <= proof.Seq {
			delete(e.certs, seq)
		}
	}
	e.gcFetches(proof.Seq)

	return append(actions, StableCheckpointAction{Proof: proof})
}
