package export

import (
	"sync"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/pbft"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// ServerConfig parameterizes a replica-side export server.
type ServerConfig struct {
	// ID is the local replica.
	ID crypto.NodeID
	// DeleteQuorum is the number of distinct data-center deletes required
	// before blocks are pruned ("a certain, configurable number", §III-D
	// step 6).
	DeleteQuorum int
	// DataCenters lists the authorized data centers, recipients of
	// delete acknowledgements.
	DataCenters []crypto.NodeID
}

// Server is the replica side of the export protocol: it answers data-center
// reads from the stable checkpoint store, executes quorums of signed
// deletes, and serves state transfers to lagging peers. It never touches
// the consensus path.
type Server struct {
	cfg   ServerConfig
	kp    *crypto.KeyPair
	reg   *crypto.Registry
	store *blockchain.Store
	tr    transport.Transport

	mu          sync.Mutex
	latestProof pbft.CheckpointProof
	latestIndex uint64 // index of the block latestProof certifies
	// newest is the newest stable checkpoint; it becomes latestProof once
	// this replica has sealed the block it certifies.
	newest pbft.CheckpointProof
	// deletes collects signed deletes per block index per data center.
	deletes map[uint64]map[crypto.NodeID]Delete
	// pending parks deletes whose block does not exist yet (error (i)).
	pending []Delete

	// onStateReply, when set, receives verified StateReply messages; the
	// node uses it to complete state transfers.
	onStateReply func(*StateReply)
}

// NewServer creates an export server and installs it as the transport
// handler for the export channel.
func NewServer(cfg ServerConfig, kp *crypto.KeyPair, reg *crypto.Registry, store *blockchain.Store, tr transport.Transport) *Server {
	if cfg.DeleteQuorum <= 0 {
		cfg.DeleteQuorum = 1
	}
	s := &Server{
		cfg:     cfg,
		kp:      kp,
		reg:     reg,
		store:   store,
		tr:      tr,
		deletes: make(map[uint64]map[crypto.NodeID]Delete),
	}
	tr.SetHandler(s.onMessage)
	return s
}

// OnStableCheckpoint feeds a newly stable PBFT checkpoint into the export
// state. The node calls it from the PBFT application callback. The proof
// certifies the last block whose LastSeq is at most proof.Seq; a replica
// that has not sealed that block yet resolves the proof on a later call or
// read.
func (s *Server) OnStableCheckpoint(proof pbft.CheckpointProof) {
	s.mu.Lock()
	if proof.Seq > s.newest.Seq {
		s.newest = proof
	}
	s.resolveLocked()
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	// Re-evaluate parked deletes now that new blocks/checkpoints exist.
	for _, del := range pending {
		s.handleDelete(del)
	}
}

// resolveLocked promotes the newest stable checkpoint to the exportable one
// once the block it certifies is in the local chain: the last block with
// LastSeq ≤ Seq, whose hash must be the checkpoint's state digest. A block
// with another hash means this replica's chain diverged from the quorum's,
// and it exports nothing under that proof.
func (s *Server) resolveLocked() {
	p := s.newest
	if p.Seq <= s.latestProof.Seq {
		return
	}
	h, err := s.store.HeaderAtSeq(p.Seq)
	if err != nil {
		return
	}
	if h.Hash() == p.StateDigest {
		s.latestProof, s.latestIndex = p, h.Index
	} else if s.store.Head().LastSeq >= p.Seq {
		s.newest = s.latestProof // diverged: the block will not come
	}
}

// LatestExportable returns the newest block index backed by a stable
// checkpoint.
func (s *Server) LatestExportable() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resolveLocked()
	return s.latestIndex
}

func (s *Server) onMessage(from crypto.NodeID, data []byte) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	switch m := msg.(type) {
	case *ReadRequest:
		if verifyMsg(m, s.reg) == nil && m.DC == from {
			s.handleRead(m)
		}
	case *Delete:
		if verifyMsg(m, s.reg) == nil && m.DC == from {
			s.handleDelete(*m)
		}
	case *StateRequest:
		if verifyMsg(m, s.reg) == nil && m.Replica == from {
			s.handleStateRequest(m)
		}
	case *StateReply:
		if verifyMsg(m, s.reg) == nil && m.Replica == from {
			s.mu.Lock()
			h := s.onStateReply
			s.mu.Unlock()
			if h != nil {
				h(m)
			}
		}
	}
}

// SetStateReplyHandler installs the node's state-transfer completion hook.
func (s *Server) SetStateReplyHandler(h func(*StateReply)) {
	s.mu.Lock()
	s.onStateReply = h
	s.mu.Unlock()
}

// RequestStateTransfer asks a peer replica for blocks from fromIndex
// (§III-D error (ii)); the reply arrives via the StateReply handler.
func (s *Server) RequestStateTransfer(peer crypto.NodeID, fromIndex uint64) {
	req := &StateRequest{FromIndex: fromIndex, Replica: s.cfg.ID}
	signMsg(req, s.kp)
	s.send(peer, req)
}

// handleRead implements step ② of Fig 4.
func (s *Server) handleRead(req *ReadRequest) {
	s.mu.Lock()
	s.resolveLocked()
	proof := s.latestProof
	index := s.latestIndex
	s.mu.Unlock()

	reply := &ReadReply{
		Round:          req.Round,
		BlockIndex:     index,
		Ckpt:           proof,
		FirstAvailable: s.store.Base(),
		Replica:        s.cfg.ID,
	}
	if req.WantBlocks && index > 0 {
		from := req.LastIndex + 1
		if base := s.store.Base(); from < base {
			// Blocks below the base are gone (already exported and
			// pruned); the data center syncs them from its peers
			// (error (iv)).
			from = base
		}
		if from <= index {
			// Durability barrier: never hand a data center blocks whose
			// group commit has not reached disk — an export followed by a
			// delete must not be the only surviving copy's ancestor.
			_ = s.store.Sync()
			if blocks, err := s.store.Range(from, index); err == nil {
				reply.Blocks = blocks
			}
		}
	}
	signMsg(reply, s.kp)
	s.send(req.DC, reply)
}

// handleDelete implements steps ⑥–⑦ of Fig 4.
func (s *Server) handleDelete(del Delete) {
	s.mu.Lock()

	// Error (i): the delete may refer to a block this replica has not
	// created yet (export and agreement are decoupled). Park it.
	if del.BlockIndex > s.store.HeadIndex() {
		s.pending = append(s.pending, del)
		s.mu.Unlock()
		return
	}

	// The delete must name the block this replica actually holds;
	// otherwise either the DC or this replica diverged — do not prune.
	block, err := s.store.Get(del.BlockIndex)
	if err != nil || block.Hash() != del.BlockHash {
		s.mu.Unlock()
		return
	}

	byDC, ok := s.deletes[del.BlockIndex]
	if !ok {
		byDC = make(map[crypto.NodeID]Delete)
		s.deletes[del.BlockIndex] = byDC
	}
	byDC[del.DC] = del

	matching := make([]Delete, 0, len(byDC))
	for _, d := range byDC {
		if d.BlockHash == del.BlockHash {
			matching = append(matching, d)
		}
	}
	if len(matching) < s.cfg.DeleteQuorum {
		s.mu.Unlock()
		return // error (iii): not enough deletes — do not execute
	}

	cert := DeleteCertificate{
		BlockIndex: del.BlockIndex,
		BlockHash:  del.BlockHash,
		Deletes:    matching,
	}
	delete(s.deletes, del.BlockIndex)
	s.mu.Unlock()

	// Prune, keeping the deleted boundary block as the new chain base.
	// The barrier first makes every in-flight group commit durable:
	// deleting data must never outrun persisting its successors.
	_ = s.store.Sync()
	if err := s.store.Prune(del.BlockIndex, cert.Marshal()); err != nil {
		return
	}

	// Step ⑦: acknowledge to every data center.
	ack := &DeleteAck{BlockIndex: del.BlockIndex, Replica: s.cfg.ID}
	signMsg(ack, s.kp)
	for _, dc := range s.cfg.DataCenters {
		s.send(dc, ack)
	}
}

// handleStateRequest serves a peer replica's catch-up (error (ii)): blocks
// from the requested index plus the prune authorization for our base.
func (s *Server) handleStateRequest(req *StateRequest) {
	from := req.FromIndex
	if base := s.store.Base(); from < base {
		from = base
	}
	head := s.store.HeadIndex()
	if from > head {
		return
	}
	blocks, err := s.store.Range(from, head)
	if err != nil {
		return
	}
	reply := &StateReply{
		Blocks:    blocks,
		PruneAuth: s.store.PruneAuth(),
		Replica:   s.cfg.ID,
	}
	signMsg(reply, s.kp)
	s.send(req.Replica, reply)
}

func (s *Server) send(to crypto.NodeID, msg wire.Message) {
	_ = s.tr.Send(to, wire.Marshal(msg))
}
