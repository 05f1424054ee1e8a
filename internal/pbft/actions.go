package pbft

import (
	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// Action is an effect the engine asks its runtime to perform. The engine is
// a pure state machine (no I/O, no goroutines, no timers); every Step-like
// call returns the actions it produced, which the Runner executes. This is
// what makes the protocol — including view changes — testable
// deterministically.
type Action interface {
	isAction()
}

// SendAction transmits a signed message to one replica. Encoded, when
// non-nil, is the message's ready-made wire encoding (see BroadcastAction).
type SendAction struct {
	To      crypto.NodeID
	Msg     wire.Message
	Encoded []byte
}

// BroadcastAction transmits a message to all other replicas.
// Encoded, when non-nil, carries the cached wire encoding produced while
// signing (signedBroadcast): the signing bytes are the full encoding minus
// the signature tail, so the engine gets the broadcast bytes for free and
// the runner skips re-marshalling. Msg must not be mutated after the action
// is emitted or the cache would go stale.
//
// PerPeer, when non-nil, replaces the broadcast with one send per peer,
// each carrying its own encoding: a Commit's MAC differs per receiver
// (Engine.commitBroadcast). Msg is then the untagged message, logged and
// traced once.
type BroadcastAction struct {
	Msg     wire.Message
	Encoded []byte
	PerPeer []SendAction
}

// DeliverAction is the DECIDE up-call of Table I: the request was totally
// ordered at Seq and must be appended to the log together with the origin id.
// Null (gap-filling) requests are not delivered.
type DeliverAction struct {
	Seq uint64
	Req Request
}

// CheckpointNeededAction asks the application for its state digest after
// executing Seq (in ZugChain: build the block ending at Seq and hash it).
// The application answers by calling Engine.Checkpoint(seq, digest).
type CheckpointNeededAction struct {
	Seq uint64
}

// StableCheckpointAction announces a new stable checkpoint backed by 2f+1
// signatures. The node hands the proof to the export subsystem.
type StableCheckpointAction struct {
	Proof CheckpointProof
}

// NewPrimaryAction is the NEWPRIMARY up-call of Table I, emitted when a view
// becomes active (including view 0 at startup via Engine.Start).
type NewPrimaryAction struct {
	View    uint64
	Primary crypto.NodeID
}

// StartViewTimerAction arms the view-change progress timer: if the view
// change for View does not complete before the timer fires (the runner calls
// Engine.OnViewTimer), the engine escalates to the next view. Attempt counts
// consecutive escalations so the runner can back off exponentially.
type StartViewTimerAction struct {
	View    uint64
	Attempt int
}

// StopViewTimerAction cancels the view-change progress timer.
type StopViewTimerAction struct{}

// PrePreparedAction reports that the current primary proposed a request
// (it passed validation and was accepted into the ordering pipeline). The
// ZugChain layer uses it as the paper's optimization: "nodes can already
// use a primary's preprepare as an indicator that this request will be
// ordered and cancel the corresponding soft timeout" (§III-C).
type PrePreparedAction struct {
	Seq           uint64
	PayloadDigest crypto.Digest
}

// StateTransferNeededAction reports that the cluster's stable checkpoint
// TargetSeq is ahead of this replica's executed state: the replica must
// fetch the missing blocks out of band (export error scenario (ii)).
type StateTransferNeededAction struct {
	TargetSeq uint64
	Digest    crypto.Digest
}

func (SendAction) isAction()                {}
func (PrePreparedAction) isAction()         {}
func (BroadcastAction) isAction()           {}
func (DeliverAction) isAction()             {}
func (CheckpointNeededAction) isAction()    {}
func (StableCheckpointAction) isAction()    {}
func (NewPrimaryAction) isAction()          {}
func (StartViewTimerAction) isAction()      {}
func (StopViewTimerAction) isAction()       {}
func (StateTransferNeededAction) isAction() {}
