package pbft

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// startViewChange abandons the current view and broadcasts a ViewChange for
// target. escalation marks a retried view change (timer expiry), which backs
// off the progress timer.
func (e *Engine) startViewChange(target uint64, escalation bool) []Action {
	// A ViewChange freezes this replica's P set for all lower views: once
	// sent, entering any view below the announced target would let it
	// prepare requests its outstanding promise does not report, and a later
	// NewView built from that stale promise could null a committed slot.
	// The target is therefore monotonic.
	if target < e.sentVCFor {
		target = e.sentVCFor
	}
	if target <= e.sentVCFor && e.inViewChange {
		return nil
	}
	e.inViewChange = true
	e.sentVCFor = target
	if escalation {
		e.vcAttempts++
	} else {
		e.vcAttempts = 0
	}

	vc := &ViewChange{
		NewView:    target,
		StableSeq:  e.stable.Seq,
		StableCkpt: e.stable,
		Prepared:   e.preparedProofs(),
		Replica:    e.cfg.ID,
	}
	bc := signedBroadcast(vc, e.kp)
	e.storeViewChange(vc)

	actions := []Action{
		bc,
		StartViewTimerAction{View: target, Attempt: e.vcAttempts},
	}
	actions = append(actions, e.maybeFormNewView(target)...)
	return actions
}

// recordPreparedCert captures the prepared certificate for an instance that
// just reached prepared state, keeping the highest-view certificate per
// sequence number. The map outlives installNewView's instance-log wipe, so
// the P set of later view changes still vouches for slots prepared (and
// possibly executed) in earlier views.
func (e *Engine) recordPreparedCert(inst *instance) {
	if inst.preprepare == nil || inst.seq <= e.lowWater {
		return
	}
	if cur, ok := e.certs[inst.seq]; ok && cur.PrePrepare.View >= inst.view {
		return
	}
	proof := &PreparedProof{PrePrepare: *inst.preprepare, Prepares: make([]Prepare, 0, len(inst.prepares))}
	for _, p := range inst.prepares {
		if p.Digest == inst.digest && p.View == inst.view && p.Replica != inst.preprepare.Replica {
			proof.Prepares = append(proof.Prepares, *p)
		}
	}
	slices.SortFunc(proof.Prepares, func(a, b Prepare) int { return cmp.Compare(a.Replica, b.Replica) })
	e.certs[inst.seq] = proof
}

// preparedProofs collects the P set: for every sequence number above the
// stable checkpoint that reached prepared state — in this or any earlier
// view — the certificate from the highest view that prepared it.
func (e *Engine) preparedProofs() []PreparedProof {
	seqs := make([]uint64, 0, len(e.certs))
	for seq := range e.certs {
		if seq > e.lowWater {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	proofs := make([]PreparedProof, 0, len(seqs))
	for _, seq := range seqs {
		proofs = append(proofs, *e.certs[seq])
	}
	return proofs
}

// validateViewChange fully checks a ViewChange message's evidence.
func (e *Engine) validateViewChange(vc *ViewChange) error {
	if vc.StableSeq != vc.StableCkpt.Seq {
		return fmt.Errorf("pbft: view change stable seq mismatch")
	}
	if err := vc.StableCkpt.Verify(e.reg, e.cfg.Quorum()); err != nil {
		return err
	}
	for i := range vc.Prepared {
		if err := e.validatePreparedProof(&vc.Prepared[i], vc.NewView); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) validatePreparedProof(p *PreparedProof, newView uint64) error {
	pp := &p.PrePrepare
	if pp.View >= newView {
		return fmt.Errorf("pbft: prepared proof from view %d not before new view %d", pp.View, newView)
	}
	if pp.Replica != e.primaryOf(pp.View) {
		return fmt.Errorf("pbft: prepared proof preprepare not from primary of view %d", pp.View)
	}
	if err := verify(pp, e.reg); err != nil {
		return fmt.Errorf("pbft: prepared proof preprepare: %w", err)
	}
	digest := pp.Req.Digest()
	seen := make(map[crypto.NodeID]bool, len(p.Prepares))
	matching := 0
	for i := range p.Prepares {
		pr := &p.Prepares[i]
		if pr.View != pp.View || pr.Seq != pp.Seq || pr.Digest != digest {
			return fmt.Errorf("pbft: prepared proof contains mismatched prepare")
		}
		if pr.Replica == pp.Replica || seen[pr.Replica] {
			return fmt.Errorf("pbft: prepared proof has duplicate or primary prepare")
		}
		seen[pr.Replica] = true
		if err := verify(pr, e.reg); err != nil {
			return fmt.Errorf("pbft: prepared proof prepare: %w", err)
		}
		matching++
	}
	if matching < 2*e.cfg.F() {
		return fmt.Errorf("pbft: prepared proof has %d prepares, need %d", matching, 2*e.cfg.F())
	}
	return nil
}

// storeViewChange keeps vc as its replica's ViewChange unless that replica
// already has one for a higher view: each replica holds at most one entry,
// so a Byzantine replica announcing ever higher views cannot grow e.vcs.
func (e *Engine) storeViewChange(vc *ViewChange) {
	for view, byReplica := range e.vcs {
		if _, ok := byReplica[vc.Replica]; !ok || view == vc.NewView {
			continue
		}
		if view > vc.NewView {
			return
		}
		delete(byReplica, vc.Replica)
		if len(byReplica) == 0 {
			delete(e.vcs, view)
		}
	}
	byReplica, ok := e.vcs[vc.NewView]
	if !ok {
		byReplica = make(map[crypto.NodeID]*ViewChange)
		e.vcs[vc.NewView] = byReplica
	}
	byReplica[vc.Replica] = vc
}

func (e *Engine) onViewChange(vc *ViewChange) []Action {
	if vc.NewView <= e.view {
		return nil // stale
	}
	if err := e.validateViewChange(vc); err != nil {
		return nil
	}
	e.storeViewChange(vc)

	var actions []Action

	// Liveness rule: seeing f+1 replicas change to higher views proves at
	// least one correct replica suspects the primary; join the smallest
	// such view to avoid being left behind by a partition of timeouts.
	if higher := e.distinctHigherViewChangers(); len(higher) >= e.cfg.F()+1 {
		minView := vc.NewView
		for _, v := range higher {
			if v < minView {
				minView = v
			}
		}
		if minView > e.sentVCFor {
			actions = append(actions, e.startViewChange(minView, false)...)
		}
	}

	actions = append(actions, e.maybeFormNewView(vc.NewView)...)
	return actions
}

// distinctHigherViewChangers returns, per replica, the smallest view greater
// than the current one it has announced a change to.
func (e *Engine) distinctHigherViewChangers() map[crypto.NodeID]uint64 {
	out := make(map[crypto.NodeID]uint64)
	for view, byReplica := range e.vcs {
		if view <= e.view {
			continue
		}
		for id := range byReplica {
			if cur, ok := out[id]; !ok || view < cur {
				out[id] = view
			}
		}
	}
	return out
}

// maybeFormNewView builds and broadcasts a NewView if this replica is the
// designated primary of target and holds a 2f+1 quorum of view changes.
func (e *Engine) maybeFormNewView(target uint64) []Action {
	if e.primaryOf(target) != e.cfg.ID || target <= e.view || target < e.sentVCFor {
		return nil
	}
	byReplica := e.vcs[target]
	if len(byReplica) < e.cfg.Quorum() {
		return nil
	}
	if _, ok := byReplica[e.cfg.ID]; !ok {
		// Quorum without our own view change: join first so the NewView
		// provably includes the new primary's word.
		return e.startViewChange(target, false)
	}

	vcs := make([]ViewChange, 0, len(byReplica))
	ids := make([]crypto.NodeID, 0, len(byReplica))
	for id := range byReplica {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		vcs = append(vcs, *byReplica[id])
	}

	preprepares := e.computeNewViewPrePrepares(target, vcs)
	nv := &NewView{
		View:        target,
		ViewChanges: vcs,
		PrePrepares: preprepares,
		Replica:     e.cfg.ID,
	}
	actions := []Action{signedBroadcast(nv, e.kp)}
	actions = append(actions, e.installNewView(nv)...)
	return actions
}

// computeNewViewPrePrepares derives the O set: for every slot between the
// newest stable checkpoint and the highest prepared sequence number in the
// quorum, re-issue the prepared request (from the proof with the highest
// view) or a null request for unconstrained slots.
func (e *Engine) computeNewViewPrePrepares(target uint64, vcs []ViewChange) []PrePrepare {
	minS, maxS := newViewBounds(vcs)
	best := make(map[uint64]*PreparedProof, len(vcs))
	for i := range vcs {
		for j := range vcs[i].Prepared {
			p := &vcs[i].Prepared[j]
			seq := p.PrePrepare.Seq
			if seq <= minS || seq > maxS {
				continue
			}
			if cur, ok := best[seq]; !ok || p.PrePrepare.View > cur.PrePrepare.View {
				best[seq] = p
			}
		}
	}
	var preprepares []PrePrepare
	for seq := minS + 1; seq <= maxS; seq++ {
		var req Request
		if p, ok := best[seq]; ok {
			req = p.PrePrepare.Req
		} else {
			// Null request filling an unconstrained gap.
			req = Request{Origin: e.cfg.ID}
			SignRequest(&req, e.kp)
		}
		pp := PrePrepare{
			View:    target,
			Seq:     seq,
			Req:     req,
			Replica: e.cfg.ID,
		}
		sign(&pp, e.kp)
		preprepares = append(preprepares, pp)
	}
	return preprepares
}

// newViewBounds returns (min-s, max-s): the newest stable checkpoint in the
// quorum and the highest prepared sequence number.
func newViewBounds(vcs []ViewChange) (minS, maxS uint64) {
	for i := range vcs {
		if vcs[i].StableSeq > minS {
			minS = vcs[i].StableSeq
		}
		for j := range vcs[i].Prepared {
			if s := vcs[i].Prepared[j].PrePrepare.Seq; s > maxS {
				maxS = s
			}
		}
	}
	if maxS < minS {
		maxS = minS
	}
	return minS, maxS
}

func (e *Engine) onNewView(nv *NewView) []Action {
	if nv.View <= e.view || nv.Replica != e.primaryOf(nv.View) {
		return nil
	}
	if nv.View < e.sentVCFor {
		// This replica already promised a higher view; entering a lower one
		// would break the freeze its ViewChange message asserted (see
		// startViewChange) and allow a later NewView to null slots this
		// replica commits below the promised view.
		return nil
	}
	if err := e.validateNewView(nv); err != nil {
		return nil
	}
	return e.installNewView(nv)
}

// validateNewView re-derives the O set from the quoted view changes and
// requires the primary's preprepares to match exactly, so a Byzantine new
// primary cannot smuggle in or drop prepared requests.
func (e *Engine) validateNewView(nv *NewView) error {
	seen := make(map[crypto.NodeID]bool, len(nv.ViewChanges))
	for i := range nv.ViewChanges {
		vc := &nv.ViewChanges[i]
		if vc.NewView != nv.View {
			return fmt.Errorf("pbft: new view quotes view change for wrong view")
		}
		if seen[vc.Replica] {
			return fmt.Errorf("pbft: new view quotes duplicate view change signer")
		}
		seen[vc.Replica] = true
		if err := verify(vc, e.reg); err != nil {
			return fmt.Errorf("pbft: quoted view change: %w", err)
		}
		if err := e.validateViewChange(vc); err != nil {
			return err
		}
	}
	if len(seen) < e.cfg.Quorum() {
		return fmt.Errorf("pbft: new view quotes %d view changes, need %d", len(seen), e.cfg.Quorum())
	}

	minS, maxS := newViewBounds(nv.ViewChanges)
	if uint64(len(nv.PrePrepares)) != maxS-minS {
		return fmt.Errorf("pbft: new view has %d preprepares, want %d", len(nv.PrePrepares), maxS-minS)
	}
	best := make(map[uint64]*PreparedProof)
	for i := range nv.ViewChanges {
		for j := range nv.ViewChanges[i].Prepared {
			p := &nv.ViewChanges[i].Prepared[j]
			seq := p.PrePrepare.Seq
			if seq <= minS || seq > maxS {
				continue
			}
			if cur, ok := best[seq]; !ok || p.PrePrepare.View > cur.PrePrepare.View {
				best[seq] = p
			}
		}
	}
	for i := range nv.PrePrepares {
		pp := &nv.PrePrepares[i]
		wantSeq := minS + 1 + uint64(i)
		if pp.Seq != wantSeq || pp.View != nv.View || pp.Replica != nv.Replica {
			return fmt.Errorf("pbft: new view preprepare %d malformed", i)
		}
		if err := verify(pp, e.reg); err != nil {
			return fmt.Errorf("pbft: new view preprepare: %w", err)
		}
		if p, ok := best[wantSeq]; ok {
			if pp.Req.Digest() != p.PrePrepare.Req.Digest() {
				return fmt.Errorf("pbft: new view replaced prepared request at seq %d", wantSeq)
			}
		} else if !pp.Req.IsNull() {
			return fmt.Errorf("pbft: new view invented request for unconstrained seq %d", wantSeq)
		}
	}
	return nil
}

// installNewView enters the new view, adopts its checkpoint baseline, and
// replays the re-issued preprepares.
func (e *Engine) installNewView(nv *NewView) []Action {
	minS, _ := newViewBounds(nv.ViewChanges)

	var actions []Action
	e.view = nv.View
	e.inViewChange = false
	e.vcAttempts = 0
	e.lastNewView = nv
	e.pendingProposals = nil
	if e.view > e.pinnedView {
		// Pre-crash pins only constrain the view they were cast in; the
		// NewView certificate re-certifies every surviving slot.
		e.pinned = nil
	}
	if e.sentVCFor < e.view {
		e.sentVCFor = e.view
	}
	actions = append(actions, StopViewTimerAction{})

	// Adopt a newer stable checkpoint from the quorum if ours is older.
	if minS > e.lowWater {
		for i := range nv.ViewChanges {
			if nv.ViewChanges[i].StableSeq == minS {
				actions = append(actions, e.advanceStable(nv.ViewChanges[i].StableCkpt)...)
				break
			}
		}
	}

	// Drop in-flight instances; the new view's preprepares resume them.
	e.log = make(map[uint64]*instance)
	for view := range e.vcs {
		if view <= e.view {
			delete(e.vcs, view)
		}
	}

	if e.primaryOf(e.view) == e.cfg.ID {
		e.nextSeq = minS + uint64(len(nv.PrePrepares)) + 1
		if e.nextSeq <= e.executed {
			e.nextSeq = e.executed + 1
		}
	}

	for i := range nv.PrePrepares {
		actions = append(actions, e.acceptPrePrepare(&nv.PrePrepares[i])...)
	}
	actions = append(actions, e.replayEarly()...)

	actions = append(actions, NewPrimaryAction{View: e.view, Primary: e.primaryOf(e.view)})
	actions = append(actions, e.drainProposals()...)
	return actions
}

// OnViewTimer is called by the runner when the view-change progress timer
// for view fires. If that view change is still incomplete, the engine
// escalates to the next view with an increased backoff attempt.
func (e *Engine) OnViewTimer(view uint64) []Action {
	if !e.inViewChange || e.view >= view || e.sentVCFor > view {
		return nil
	}
	return e.startViewChange(view+1, true)
}

// earlyMsg is a verified phase message held for a view not yet entered or
// above the high watermark. reqVerified records, for a PrePrepare, whether
// its request signatures were already checked (see Engine.ReceiveVerified).
type earlyMsg struct {
	msg         wire.Message
	reqVerified bool
}

// maxEarly bounds Engine.early at 3·n·window messages, whatever peers send:
// room for one PrePrepare, Prepare and Commit per replica and slot of the
// watermark window. A full window of either kind of early message — a view
// not yet entered, or the window above the high watermark — needs at most
// (2n+1)·window.
func (e *Engine) maxEarly() int {
	return 3 * len(e.cfg.Replicas) * int(e.cfg.WatermarkWindow)
}

// holdEarly keeps a verified phase message this replica will need soon but
// cannot use yet:
//   - one of a view above the current one that this replica is changing to
//     (or, outside a view change, of the next view): its NewView may still
//     be on a verify-pool worker;
//   - one of the current view whose seq lies at most one window above the
//     high watermark: the primary stabilised a checkpoint this replica has
//     not yet, and nothing re-sends those messages, so dropping them would
//     leave a hole no later checkpoint can close.
//
// Anything else is dropped, as is everything once maxEarly messages are
// held.
func (e *Engine) holdEarly(view, seq uint64, msg wire.Message, reqVerified bool) {
	if seq <= e.lowWater || len(e.early) >= e.maxEarly() {
		return
	}
	if view == e.view && !e.inViewChange {
		if high := e.lowWater + e.cfg.WatermarkWindow; seq > high+e.cfg.WatermarkWindow {
			return
		}
	} else {
		next := e.sentVCFor
		if next <= e.view {
			next = e.view + 1
		}
		if view <= e.view || view > next {
			return
		}
	}
	e.early = append(e.early, earlyMsg{msg: msg, reqVerified: reqVerified})
}

// replayEarly feeds the held messages back through the normal handlers once
// a view is installed or the low watermark rises: those now usable are
// processed, those still early are held again, the rest are dropped.
func (e *Engine) replayEarly() []Action {
	held := e.early
	e.early = nil
	var actions []Action
	for _, h := range held {
		switch m := h.msg.(type) {
		case *PrePrepare:
			actions = append(actions, e.onPrePrepare(m, h.reqVerified)...)
		case *Prepare:
			actions = append(actions, e.onPrepare(m)...)
		case *Commit:
			actions = append(actions, e.onCommit(m)...)
		}
	}
	return actions
}
