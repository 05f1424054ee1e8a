package node

import (
	"fmt"
	"sort"

	"zugchain/internal/blockchain"
	"zugchain/internal/core"
	"zugchain/internal/crypto"
	"zugchain/internal/obsv"
	"zugchain/internal/pbft"
	"zugchain/internal/wal"
)

// RecoveryInfo summarizes what a restarting node reconstructed from its
// on-disk state. Zero-valued on a fresh start.
type RecoveryInfo struct {
	// WALRecords is the number of protocol records replayed from the WAL.
	WALRecords int
	// WALReport details WAL segment recovery (torn-tail truncation).
	WALReport wal.RecoveryReport
	// StoreReport details blockchain recovery (corrupt tail blocks).
	StoreReport blockchain.RecoveryReport
	// RestoredView is the PBFT view the replica resumed in.
	RestoredView uint64
	// RestoredSeq is the last sequence number known executed before the
	// crash (nothing at or below it is re-executed).
	RestoredSeq uint64
	// WindowRestored is the number of dedup-window entries reseeded.
	WindowRestored int
	// PendingTransfer, when nonzero, is the sequence number a quorum
	// certified beyond the local chain; Start kicks the state-transfer
	// fetcher until the chain head reaches it.
	PendingTransfer uint64
}

// Recovery reports what this node restored on startup.
func (n *Node) Recovery() RecoveryInfo { return n.recovery }

// walPersister adapts the WAL to pbft.Persister: one action batch becomes
// one group-committed append, durable before the runner sends anything.
// Prepared certificates are encoded straight into the append's frames.
type walPersister struct{ log *wal.Log }

var persistToWALKind = map[pbft.PersistKind]wal.Kind{
	pbft.PersistView:         wal.KindView,
	pbft.PersistPrePrepare:   wal.KindPrePrepare,
	pbft.PersistPrepare:      wal.KindPrepare,
	pbft.PersistCommit:       wal.KindCommit,
	pbft.PersistPreparedCert: wal.KindPreparedCert,
}

// Persist implements pbft.Persister.
func (p walPersister) Persist(recs []pbft.PersistRecord) error {
	var b wal.Batch
	for _, r := range recs {
		kind, ok := persistToWALKind[r.Kind]
		if !ok {
			continue
		}
		rec := wal.Record{
			Kind:   kind,
			View:   r.View,
			Seq:    r.Seq, // for KindView this is the highest view a ViewChange was sent for
			Digest: r.Digest,
			Flag:   r.InViewChange,
		}
		if r.Cert != nil {
			rec.Body = r.Cert
		}
		b.Add(rec)
	}
	return p.log.AppendBatch(&b)
}

var walToPersistKind = map[wal.Kind]pbft.PersistKind{
	wal.KindPrePrepare: pbft.PersistPrePrepare,
	wal.KindPrepare:    pbft.PersistPrepare,
	wal.KindCommit:     pbft.PersistCommit,
}

// restoreFromWAL interprets the replayed WAL records and rebuilds the
// replica's pre-crash state: view and view-change progress, the newest
// quorum-certified checkpoint, the digests pinned by pre-crash votes,
// prepared certificates, and the dedup window (returned for the front end,
// which does not exist yet when this runs). Called from New, before the
// runner starts. A non-empty chain with an empty WAL — the WAL wiped,
// disabled, or newly enabled over an existing DataDir — still restores the
// executed watermark from the chain head and reseeds the window from
// blocks: restarting at executed=0 would re-execute and double-LOG
// sequences whose effects are already durable.
func (n *Node) restoreFromWAL(engine *pbft.Engine, recs []wal.Record) []core.WindowEntry {
	head := n.store.Head()
	var headIdx, headLastSeq uint64
	if head != nil {
		headIdx, headLastSeq = head.Header.Index, head.Header.LastSeq
	}
	if len(recs) == 0 && headIdx == 0 {
		// Fresh start: nothing durable anywhere (the store always holds
		// genesis, so an empty chain is headIdx == 0, not head == nil).
		return nil
	}

	quorum := 2*((len(n.cfg.Replicas)-1)/3) + 1
	st := pbft.RestoredState{}
	window := make(map[crypto.Digest]uint64)
	for _, r := range recs {
		switch r.Kind {
		case wal.KindView:
			// Later records supersede earlier ones within a segment, and
			// segments replay in order.
			st.View = r.View
			st.SentVCFor = r.Seq
		case wal.KindCheckpoint:
			proof, err := pbft.DecodeCheckpointProof(r.Data)
			if err != nil {
				continue
			}
			// Disk contents are not implicitly trusted: a proof that no
			// longer carries a valid quorum is ignored.
			if err := proof.Verify(n.reg, quorum); err != nil {
				continue
			}
			if proof.Seq >= st.Stable.Seq {
				st.Stable = proof
			}
		case wal.KindPrePrepare, wal.KindPrepare, wal.KindCommit:
			st.Pinned = append(st.Pinned, pbft.PersistRecord{
				Kind:   walToPersistKind[r.Kind],
				View:   r.View,
				Seq:    r.Seq,
				Digest: r.Digest,
			})
		case wal.KindPreparedCert:
			proof, err := pbft.DecodePreparedProof(r.Data)
			if err != nil {
				continue
			}
			// Engine.Restore validates the certificate's quorum before
			// readmitting it to the P set.
			st.Certs = append(st.Certs, proof)
		case wal.KindDedup:
			if r.Seq > window[r.Digest] {
				window[r.Digest] = r.Seq
			}
		}
	}

	// Every executed slot that logs is sealed and fsync'd before the next
	// slot executes, and every checkpoint slot seals a block ending at it,
	// so the chain head's LastSeq marks the last durably executed slot that
	// logged anything; the stable proof may certify further if the final
	// append raced the crash. Nothing at or below the max is re-executed —
	// its LOG effects are already on disk. The builder already sits on the
	// store head, so sealing resumes per slot after it.
	st.Executed = st.Stable.Seq
	if headLastSeq > st.Executed {
		st.Executed = headLastSeq
	}
	engine.Restore(st)
	n.recovery.WALRecords = len(recs)
	n.recovery.RestoredView = st.View
	n.recovery.RestoredSeq = st.Executed
	if st.Stable.Seq > headLastSeq {
		n.recovery.PendingTransfer = st.Stable.Seq
	}
	n.obs.Journal.Record(obsv.Event{
		Kind: obsv.EventRecovery, View: st.View, Seq: st.Executed, Node: n.cfg.ID,
		Detail: fmt.Sprintf("wal-records=%d head=%d pending-transfer=%d",
			len(recs), headIdx, n.recovery.PendingTransfer),
	})

	// The WAL snapshot carries window entries at or below the last stable
	// checkpoint; entries decided after it are re-derived from the chain
	// blocks themselves (payload digest = hash of the logged payload).
	// Decides past the head re-execute and re-enter the window naturally.
	width := n.cfg.WindowSeqs
	if width == 0 {
		width = core.DefaultWindowSeqs
	}
	var minSeq uint64
	if st.Executed > width {
		minSeq = st.Executed - width + 1
	}
	base := n.store.Base()
	for idx := headIdx; idx > base; idx-- {
		b, err := n.store.Get(idx)
		if err != nil {
			break // compacted to header: entries below are gone too
		}
		if b.Header.LastSeq < minSeq {
			break
		}
		for _, e := range b.Entries {
			if e.Seq < minSeq {
				continue
			}
			d := crypto.Hash(e.Payload)
			if e.Seq > window[d] {
				window[d] = e.Seq
			}
		}
	}

	entries := make([]core.WindowEntry, 0, len(window))
	for d, seq := range window {
		if seq < minSeq {
			continue
		}
		entries = append(entries, core.WindowEntry{Digest: d, Seq: seq})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	return entries
}

// rotation is rotateWAL's scratch space, reused from one stable checkpoint
// to the next so that a rotation frames its snapshot without collecting it
// first. Only the runner's event loop touches it.
type rotation struct {
	votes  []pbft.PersistRecord
	certs  []*pbft.PreparedProof
	window []core.WindowEntry
}

// rotateWAL compacts the log down to a snapshot at a new stable checkpoint:
// the current view state, the quorum proof itself, the votes and prepared
// certificates for in-flight slots above the checkpoint, and the
// dedup-window entries the chain cannot re-derive. Each record is framed
// straight into the rotation's buffer, certificates included. Called from
// the runner's event loop (via StableCheckpoint), so reading engine state
// is safe.
func (n *Node) rotateWAL(proof pbft.CheckpointProof) {
	if n.wlog == nil {
		return
	}
	view, sentVC, inVC := n.engine.ViewState()
	var b wal.Batch
	b.Add(wal.Record{Kind: wal.KindView, View: view, Seq: sentVC, Flag: inVC})
	b.Add(wal.Record{Kind: wal.KindCheckpoint, Seq: proof.Seq, Body: &proof})
	// Votes for slots in (S, S+window] are routinely cast before the
	// checkpoint at S stabilizes. The quorum's signatures only re-certify
	// votes at or below S; everything above it must roll into the new
	// segment, or a crash right after rotation would restart the replica
	// with no pins for those slots and let it re-vote a conflicting digest.
	rot := &n.rotation
	rot.votes = n.engine.VoteRecords(rot.votes[:0])
	for _, r := range rot.votes {
		kind, ok := persistToWALKind[r.Kind]
		if !ok {
			continue
		}
		b.Add(wal.Record{Kind: kind, View: r.View, Seq: r.Seq, Digest: r.Digest})
	}
	// Likewise the P set: prepared certificates above the checkpoint back
	// this replica's ViewChange claims across a restart.
	rot.certs = n.engine.PreparedCerts(rot.certs[:0])
	for _, p := range rot.certs {
		b.Add(wal.Record{Kind: wal.KindPreparedCert, View: p.PrePrepare.View, Seq: p.PrePrepare.Seq, Body: p})
	}
	rot.window = n.front.WindowSnapshot(rot.window[:0], proof.Seq)
	for _, e := range rot.window {
		b.Add(wal.Record{Kind: wal.KindDedup, Seq: e.Seq, Digest: e.Digest})
	}
	clear(rot.certs) // hold no certificate past its slot's life
	records := b.Len()
	if err := n.wlog.RotateBatch(&b); err == nil {
		n.obs.Journal.Record(obsv.Event{
			Kind: obsv.EventWALRotation, View: view, Seq: proof.Seq, Node: n.cfg.ID,
			Detail: fmt.Sprintf("snapshot-records=%d", records),
		})
	}
}

// ensureStateFetch records that the chain head's LastSeq must reach target
// and starts the retrying fetcher if it is not already running. Safe from
// any goroutine.
func (n *Node) ensureStateFetch(target uint64) {
	n.fetchMu.Lock()
	defer n.fetchMu.Unlock()
	if target > n.fetchTarget {
		n.fetchTarget = target
	}
	if n.fetchActive || n.fetchTarget <= n.store.Head().LastSeq {
		return
	}
	n.fetchActive = true
	go n.fetchLoop()
}

// fetchLoop re-requests blocks from every peer with doubling backoff until
// the chain reaches the fetch target, the retry budget runs out with no
// progress (a later divergence event re-arms it), or the node stops. The
// original implementation sent one fire-and-forget request to one peer: a
// single dropped frame on the drop-oldest transport stranded the replica
// until the next checkpoint divergence.
func (n *Node) fetchLoop() {
	wait := n.cfg.StateRetryInterval
	maxWait := 16 * n.cfg.StateRetryInterval
	stalled := 0
	for {
		n.fetchMu.Lock()
		target := n.fetchTarget
		if n.store.Head().LastSeq >= target {
			n.fetchActive = false
			n.fetchMu.Unlock()
			return
		}
		n.fetchMu.Unlock()

		before := n.store.HeadIndex()
		for _, peer := range n.cfg.Replicas {
			if peer != n.cfg.ID {
				n.srv.RequestStateTransfer(peer, before+1)
			}
		}

		select {
		case <-n.quit:
			n.fetchMu.Lock()
			n.fetchActive = false
			n.fetchMu.Unlock()
			return
		case <-n.clk.After(wait):
		}

		if n.store.HeadIndex() > before {
			stalled = 0
			wait = n.cfg.StateRetryInterval
			continue
		}
		stalled++
		if stalled >= n.cfg.StateRetryRounds {
			n.fetchMu.Lock()
			n.fetchActive = false
			n.fetchMu.Unlock()
			return
		}
		if wait *= 2; wait > maxWait {
			wait = maxWait
		}
	}
}
