package pbft

import (
	"cmp"
	"slices"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// Castro–Liskov PBFT assumes replicas log protocol messages to stable
// storage before sending them: a replica that crashes and restarts without
// that log comes back at view 0 having forgotten which digests it voted
// for, and can equivocate — sending a conflicting Prepare for a slot it
// already prepared — which silently burns the f-of-3f+1 fault budget. The
// types here are the engine's durability contract: the Runner condenses
// each action batch into PersistRecords and hands them to a Persister
// before any message leaves the process, and a restarted node feeds the
// replayed records back through Engine.Restore.

// PersistKind identifies what a PersistRecord captures.
type PersistKind uint8

const (
	// PersistView records the replica's view state after it changed: View
	// is the active view, Seq the highest view a ViewChange was sent for,
	// and InViewChange whether a change was still in progress.
	PersistView PersistKind = iota + 1
	// PersistPrePrepare, PersistPrepare and PersistCommit pin the request
	// digest this replica vouched for at (View, Seq), written before the
	// corresponding message is sent.
	PersistPrePrepare
	PersistPrepare
	PersistCommit
	// PersistPreparedCert carries, in Cert, the prepared certificate (the
	// accepted PrePrepare plus 2f matching Prepares) for (View, Seq) —
	// written when the slot reaches prepared, before the
	// Commit is sent. It is the durable form of the view-change P set:
	// without it a restarted replica's ViewChange would omit every slot it
	// prepared pre-crash, and overlapping crash-restarts during a view
	// change could form a NewView that nulls an executed slot.
	PersistPreparedCert
)

// PersistRecord is one durable protocol event.
type PersistRecord struct {
	Kind         PersistKind
	View         uint64
	Seq          uint64
	Digest       crypto.Digest
	InViewChange bool
	// Cert is the engine's own certificate, not a copy: the persister
	// encodes it (EncodeTo) straight into its log and must not retain or
	// modify it.
	Cert *PreparedProof
}

// pin remembers one pre-crash vote: the digest this replica vouched for at
// a slot and the strongest vote kind it cast (a PersistPrePrepare pin also
// fences nextSeq on a restarted primary).
type pin struct {
	digest crypto.Digest
	kind   PersistKind
}

// Persister writes protocol records to stable storage. Persist must not
// return until the records are durable; an error means durability could not
// be guaranteed and the runner stops sending protocol messages (the replica
// degrades to a silent learner rather than risk equivocating after a
// restart). It is called only from the runner's event loop, and must not
// retain recs, which the runner reuses.
type Persister interface {
	Persist(recs []PersistRecord) error
}

// RestoredState is what a restarted node reconstructs from its WAL and
// blockchain before the engine starts.
type RestoredState struct {
	// View and SentVCFor restore the view state from the last PersistView
	// record.
	View      uint64
	SentVCFor uint64
	// Stable is the newest durable checkpoint proof (zero Seq = genesis).
	Stable CheckpointProof
	// Executed is the last sequence number whose effects are already
	// durable in the blockchain — re-executing past it would double-LOG.
	Executed uint64
	// Pinned are the replayed PrePrepare/Prepare/Commit records; those
	// matching the restored view pin their slots against equivocation.
	Pinned []PersistRecord
	// Certs are the replayed prepared certificates. Restore validates each
	// one (disk contents are not implicitly trusted) and rebuilds the
	// view-change P set from the survivors.
	Certs []PreparedProof
}

// Restore applies st to a freshly constructed engine, before Start. The
// replica resumes in its pre-crash view with its pre-crash watermarks, and
// every slot it had voted on is pinned to the digest it vouched for:
// acceptPrePrepare refuses a conflicting proposal for a pinned slot, so the
// restarted replica may re-send identical votes (harmless retransmits) but
// can never contradict its pre-crash word.
func (e *Engine) Restore(st RestoredState) {
	if st.View > e.view {
		e.view = st.View
	}
	if st.SentVCFor > e.sentVCFor {
		e.sentVCFor = st.SentVCFor
	}
	if st.Stable.Seq > e.lowWater {
		e.stable = st.Stable
		e.lowWater = st.Stable.Seq
	}
	if st.Executed > e.executed {
		e.executed = st.Executed
	}
	if e.executed < e.lowWater {
		e.executed = e.lowWater
	}
	if e.nextSeq <= e.executed {
		e.nextSeq = e.executed + 1
	}
	e.pinnedView = e.view
	e.pinned = make(map[uint64]pin)
	for _, p := range st.Pinned {
		if p.View != e.view || p.Seq <= e.lowWater {
			continue
		}
		switch p.Kind {
		case PersistPrePrepare, PersistPrepare, PersistCommit:
		default:
			continue
		}
		cur := e.pinned[p.Seq]
		cur.digest = p.Digest
		if cur.kind != PersistPrePrepare {
			cur.kind = p.Kind
		}
		e.pinned[p.Seq] = cur
		// A primary must not reassign a sequence number it already
		// proposed before the crash.
		if p.Kind == PersistPrePrepare && p.Seq >= e.nextSeq {
			e.nextSeq = p.Seq + 1
		}
	}

	// Rebuild the prepared-certificate P set. Certificates from any view up
	// to the restored one are admissible; per slot the highest view wins,
	// matching recordPreparedCert.
	for i := range st.Certs {
		p := &st.Certs[i]
		seq := p.PrePrepare.Seq
		if seq <= e.lowWater {
			continue
		}
		if err := e.validatePreparedProof(p, e.view+1); err != nil {
			continue
		}
		if cur, ok := e.certs[seq]; ok && cur.PrePrepare.View >= p.PrePrepare.View {
			continue
		}
		cp := *p
		e.certs[seq] = &cp
	}
}

// VoteRecords appends to dst every digest this replica currently vouches
// for at sequence numbers above the stable checkpoint, ordered by sequence
// number and kind: its own votes in the live instance log plus any
// still-standing pre-crash pins. The WAL rotation
// snapshot must include them — votes for slots in (S, S+window] are
// routinely cast before the checkpoint at S stabilizes, and dropping them
// from the snapshot would let a crash right after rotation un-pin those
// slots, re-opening the equivocation the WAL exists to prevent. Safe only
// from the runner's event loop.
func (e *Engine) VoteRecords(dst []PersistRecord) []PersistRecord {
	start := len(dst)
	for seq, inst := range e.log {
		if seq > e.lowWater {
			dst = inst.appendOwnVotes(dst, e.cfg.ID)
		}
	}
	if e.pinnedView == e.view {
		// Pins carried over from the last restart that no live instance
		// restates yet: still binding, so they roll into the new segment.
		for seq, p := range e.pinned {
			if inst, ok := e.log[seq]; seq <= e.lowWater || ok && inst.votedBy(e.cfg.ID) {
				continue
			}
			dst = append(dst, PersistRecord{Kind: p.kind, View: e.pinnedView, Seq: seq, Digest: p.digest})
		}
	}
	slices.SortFunc(dst[start:], func(a, b PersistRecord) int {
		return cmp.Or(cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Kind, b.Kind))
	})
	return dst
}

// appendOwnVotes appends the votes replica id cast in inst.
func (inst *instance) appendOwnVotes(dst []PersistRecord, id crypto.NodeID) []PersistRecord {
	if inst.preprepare == nil {
		return dst
	}
	rec := PersistRecord{View: inst.view, Seq: inst.seq, Digest: inst.digest}
	if inst.preprepare.Replica == id {
		rec.Kind = PersistPrePrepare
		dst = append(dst, rec)
	}
	if _, ok := inst.prepares[id]; ok {
		rec.Kind = PersistPrepare
		dst = append(dst, rec)
	}
	if _, ok := inst.commits[id]; ok {
		rec.Kind = PersistCommit
		dst = append(dst, rec)
	}
	return dst
}

// votedBy reports whether appendOwnVotes finds a vote of replica id in
// inst.
func (inst *instance) votedBy(id crypto.NodeID) bool {
	if inst.preprepare == nil {
		return false
	}
	_, prepared := inst.prepares[id]
	_, committed := inst.commits[id]
	return inst.preprepare.Replica == id || prepared || committed
}

// PreparedCerts appends to dst the engine's current P set, in sequence
// order: for every in-flight sequence number above the stable checkpoint,
// the prepared certificate from the highest view that prepared it. The WAL
// rotation snapshot carries these so the P set survives a crash after
// rotation. The certificates are the engine's own, not copies; callers must
// not modify them. Safe only from the runner's event loop.
func (e *Engine) PreparedCerts(dst []*PreparedProof) []*PreparedProof {
	start := len(dst)
	for seq, p := range e.certs {
		if seq > e.lowWater {
			dst = append(dst, p)
		}
	}
	slices.SortFunc(dst[start:], func(a, b *PreparedProof) int {
		return cmp.Compare(a.PrePrepare.Seq, b.PrePrepare.Seq)
	})
	return dst
}

// proposalDigest returns pp's request digest, reusing the one computed when
// pp was accepted as its slot's proposal. Safe only from the runner's event
// loop.
func (e *Engine) proposalDigest(pp *PrePrepare) crypto.Digest {
	if inst, ok := e.log[pp.Seq]; ok && inst.preprepare == pp {
		return inst.digest
	}
	return pp.Req.Digest()
}

// PreparedCert returns the recorded prepared certificate for seq, or nil.
// Safe only from the runner's event loop.
func (e *Engine) PreparedCert(seq uint64) *PreparedProof { return e.certs[seq] }

// ViewState returns the view fields a PersistView record captures. Safe
// only from the runner's event loop (Application callbacks or Inspect).
func (e *Engine) ViewState() (view, sentVCFor uint64, inViewChange bool) {
	return e.view, e.sentVCFor, e.inViewChange
}

// DecodeCheckpointProof decodes a checkpoint proof that
// CheckpointProof.EncodeTo wrote to stable storage. The caller still
// Verify()s the proof — disk contents are not implicitly trusted.
func DecodeCheckpointProof(data []byte) (CheckpointProof, error) {
	d := wire.NewDecoder(data)
	p := decodeCheckpointProof(d)
	if err := d.Err(); err != nil {
		return CheckpointProof{}, err
	}
	return p, nil
}

// DecodePreparedProof decodes a prepared certificate that
// PreparedProof.EncodeTo wrote to stable storage. The caller still
// validates the certificate — disk contents are not implicitly trusted
// (Engine.Restore does this via validatePreparedProof).
func DecodePreparedProof(data []byte) (PreparedProof, error) {
	d := wire.NewDecoder(data)
	p := decodePreparedProof(d)
	if err := d.Err(); err != nil {
		return PreparedProof{}, err
	}
	return p, nil
}
