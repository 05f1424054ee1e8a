package export

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/pbft"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// DataCenterConfig parameterizes a data-center export client.
type DataCenterConfig struct {
	// ID is this data center (range crypto.DataCenterIDBase+).
	ID crypto.NodeID
	// Replicas are the on-train replicas to query.
	Replicas []crypto.NodeID
	// F is the replica fault threshold; reads wait for 2f+1 checkpoint
	// replies so at least one recent checkpoint from a correct node is
	// guaranteed (§III-D step ③).
	F int
	// CheckpointQuorum is the signature quorum for checkpoint proofs
	// (2f+1 of the replica set).
	CheckpointQuorum int
	// ReadTimeout bounds one read round.
	ReadTimeout time.Duration
	// Seed makes the full-block replica choice reproducible in tests.
	Seed int64
}

func (c *DataCenterConfig) applyDefaults() {
	if c.F == 0 {
		c.F = (len(c.Replicas) - 1) / 3
	}
	if c.CheckpointQuorum == 0 {
		c.CheckpointQuorum = 2*c.F + 1
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
}

// ReadResult is the outcome of one read round (steps ①–④ of Fig 4).
type ReadResult struct {
	// BlockIndex is the index of the block the best checkpoint certifies,
	// taken from the archived block whose hash the proof carries.
	BlockIndex uint64
	// BlockHash is that block's hash from the checkpoint proof.
	BlockHash crypto.Digest
	// Proof is the verified stable checkpoint.
	Proof pbft.CheckpointProof
	// NewBlocks are the verified blocks appended to the archive.
	NewBlocks int
	// ReplyBytes counts the wire bytes of the read replies the round
	// collected: what crossed the uplink to the data center.
	ReplyBytes int
	// ReadDuration covers request to last required reply.
	ReadDuration time.Duration
	// VerifyDuration covers proof and chain verification.
	VerifyDuration time.Duration
}

// DataCenter is one railway company's archive endpoint: it pulls blocks from
// the train, verifies them against stable checkpoints, stores them durably,
// and issues signed deletes.
type DataCenter struct {
	cfg DataCenterConfig
	kp  *crypto.KeyPair
	reg *crypto.Registry
	tr  transport.Transport

	// Archive is the data center's permanent copy of the chain.
	archive *blockchain.Store

	mu      sync.Mutex
	round   uint64
	pending *readRound
	acks    map[uint64]map[crypto.NodeID]bool // block index -> replicas acked
	ackCh   chan struct{}
	rng     *rand.Rand
}

// readRound collects replies for one in-flight read.
type readRound struct {
	round   uint64
	replies map[crypto.NodeID]*ReadReply
	done    chan struct{}
	needed  int
	source  crypto.NodeID // replica asked for the full blocks
	heard   bool          // the block source has replied
	bytes   int           // wire bytes of the collected replies
}

// NewDataCenter creates a data center client. archive is its durable chain
// store (may be disk-backed).
func NewDataCenter(cfg DataCenterConfig, kp *crypto.KeyPair, reg *crypto.Registry, archive *blockchain.Store, tr transport.Transport) *DataCenter {
	cfg.applyDefaults()
	dc := &DataCenter{
		cfg:     cfg,
		kp:      kp,
		reg:     reg,
		tr:      tr,
		archive: archive,
		acks:    make(map[uint64]map[crypto.NodeID]bool),
		ackCh:   make(chan struct{}, 1),
		rng:     rand.New(rand.NewSource(cfg.Seed + int64(cfg.ID))),
	}
	tr.SetHandler(dc.onMessage)
	return dc
}

// Archive returns the data center's chain store.
func (dc *DataCenter) Archive() *blockchain.Store { return dc.archive }

// LastExported returns the newest block index in the archive.
func (dc *DataCenter) LastExported() uint64 { return dc.archive.HeadIndex() }

func (dc *DataCenter) onMessage(from crypto.NodeID, data []byte) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	switch m := msg.(type) {
	case *ReadReply:
		if verifyMsg(m, dc.reg) != nil || m.Replica != from {
			return
		}
		dc.onReadReply(m, len(data))
	case *DeleteAck:
		if verifyMsg(m, dc.reg) != nil || m.Replica != from {
			return
		}
		dc.onDeleteAck(m)
	}
}

func (dc *DataCenter) onReadReply(m *ReadReply, size int) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	r := dc.pending
	if r == nil || m.Round != r.round {
		return // stale round
	}
	if _, dup := r.replies[m.Replica]; dup {
		return
	}
	r.replies[m.Replica] = m
	r.bytes += size
	if m.Replica == r.source {
		r.heard = true
	}
	// Step ③: wait for 2f+1 checkpoint replies AND the reply of the
	// replica chosen as the full-block source.
	if len(r.replies) >= r.needed && r.heard {
		select {
		case <-r.done:
		default:
			close(r.done)
		}
	}
}

func (dc *DataCenter) onDeleteAck(m *DeleteAck) {
	dc.mu.Lock()
	byReplica, ok := dc.acks[m.BlockIndex]
	if !ok {
		byReplica = make(map[crypto.NodeID]bool)
		dc.acks[m.BlockIndex] = byReplica
	}
	byReplica[m.Replica] = true
	dc.mu.Unlock()
	select {
	case dc.ackCh <- struct{}{}:
	default:
	}
}

// Read performs steps ①–④ of Fig 4 and, when blocks are still missing
// after the first round (a faulty or pruned block source), runs the second
// round the paper prescribes: "If any blocks are missing between last_sn
// and the block included in the latest checkpoint, these can be queried
// directly from the replicas in a second round of communication". Each
// round picks a different random block source, so up to f faulty replicas
// are eventually skipped.
func (dc *DataCenter) Read(ctx context.Context) (*ReadResult, error) {
	res, err := dc.readRoundOnce(ctx)
	if err == nil {
		return res, nil
	}
	var missing errMissingBlocks
	attempts := dc.cfg.F + 1 // enough fresh sources to skip f faulty ones
	for attempt := 0; attempt < attempts && errorsAs(err, &missing); attempt++ {
		res, err = dc.readRoundOnce(ctx)
		if err == nil {
			return res, nil
		}
	}
	return res, err
}

// errorsAs adapts errors.As for the local error type.
func errorsAs(err error, target *errMissingBlocks) bool {
	return errors.As(err, target)
}

// readRoundOnce runs a single read round.
func (dc *DataCenter) readRoundOnce(ctx context.Context) (*ReadResult, error) {
	dc.mu.Lock()
	dc.round++
	r := &readRound{
		round:   dc.round,
		replies: make(map[crypto.NodeID]*ReadReply),
		done:    make(chan struct{}),
		needed:  2*dc.cfg.F + 1,
		source:  dc.cfg.Replicas[dc.rng.Intn(len(dc.cfg.Replicas))],
	}
	dc.pending = r
	blockSource := r.source
	lastIdx := dc.archive.HeadIndex()
	round := dc.round
	dc.mu.Unlock()

	start := time.Now()
	for _, replica := range dc.cfg.Replicas {
		req := &ReadRequest{
			Round:      round,
			LastIndex:  lastIdx,
			WantBlocks: replica == blockSource,
			DC:         dc.cfg.ID,
		}
		signMsg(req, dc.kp)
		_ = dc.tr.Send(replica, wire.Marshal(req))
	}

	timer := time.NewTimer(dc.cfg.ReadTimeout)
	defer timer.Stop()
	select {
	case <-r.done:
	case <-ctx.Done():
		dc.abandonRound(r)
		return nil, ctx.Err()
	case <-timer.C:
		got := dc.abandonRound(r)
		return nil, fmt.Errorf("%w: %d of %d replies", ErrReadTimeout, got, r.needed)
	}
	readDur := time.Since(start)

	dc.mu.Lock()
	dc.pending = nil
	replies := make([]*ReadReply, 0, len(r.replies))
	for _, rep := range r.replies {
		replies = append(replies, rep)
	}
	source := r.replies[r.source]
	replyBytes := r.bytes
	dc.mu.Unlock()

	// Step ④: select the newest checkpoint with a valid 2f+1 proof —
	// replies bypass consensus and may be mutually stale (§III-D step ②).
	// Newest is by the certified sequence number: a reply's BlockIndex is
	// the replica's unsigned claim, and nothing here relies on it.
	verifyStart := time.Now()
	var best, sourceProof *ReadReply
	for _, rep := range replies {
		if rep.Ckpt.Seq == 0 || rep.Ckpt.Verify(dc.reg, dc.cfg.CheckpointQuorum) != nil {
			continue
		}
		if rep == source {
			sourceProof = rep
		}
		if best == nil || rep.Ckpt.Seq > best.Ckpt.Seq {
			best = rep
		}
	}
	if best == nil {
		return nil, ErrNoCheckpoint
	}

	// Verify and install the blocks from the chosen source, vouched for by
	// the best checkpoint or the source's own.
	newBlocks := 0
	if source != nil {
		var err error
		if newBlocks, err = dc.installBlocks(source.Blocks, best, sourceProof); err != nil {
			return nil, err
		}
	}

	result := &ReadResult{
		BlockHash:      best.Ckpt.StateDigest,
		Proof:          best.Ckpt,
		NewBlocks:      newBlocks,
		ReplyBytes:     replyBytes,
		ReadDuration:   readDur,
		VerifyDuration: time.Since(verifyStart),
	}
	// All blocks up to the certified one must now be present (§III-D
	// guarantee (ii)); otherwise the caller must run a second round.
	h, err := dc.archive.HeaderAtSeq(best.Ckpt.Seq)
	if err != nil || h.Hash() != best.Ckpt.StateDigest {
		return result, fmt.Errorf("export: %w", errMissingBlocks{
			have: dc.archive.Head().LastSeq, want: best.Ckpt.Seq,
		})
	}
	result.BlockIndex = h.Index
	return result, nil
}

// abandonRound detaches a timed-out or cancelled round so late replies are
// ignored, returning how many replies had arrived.
func (dc *DataCenter) abandonRound(r *readRound) int {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if dc.pending == r {
		dc.pending = nil
	}
	return len(r.replies)
}

// errMissingBlocks reports the archive short of the certified block, in
// sequence numbers: the archive head's LastSeq and the checkpoint's seq.
type errMissingBlocks struct{ have, want uint64 }

func (e errMissingBlocks) Error() string {
	return fmt.Sprintf("blocks missing after read: archive through seq %d, checkpoint at seq %d", e.have, e.want)
}

// installBlocks appends to the archive the longest prefix of run that
// starts at the archive head + 1 and ends at a block whose hash one of the
// verified checkpoints in certs (nil ones skipped) certifies: the last
// block of the run with LastSeq at most the checkpoint's seq. The receiver
// derived the run's headers itself, so the certified hash at the prefix's
// end is what vouches for its content — through the hash chain, for every
// block before it too. A run that never reaches a certified block installs
// nothing, and the read falls through to a round with another source. The
// prefix goes to the archive as one batch, which validates each block and
// its linkage to the head.
func (dc *DataCenter) installBlocks(run []*blockchain.Block, certs ...*ReadReply) (int, error) {
	if len(run) == 0 || run[0].Index != dc.archive.HeadIndex()+1 {
		return 0, nil
	}
	end := 0
	for _, c := range certs {
		if c == nil {
			continue
		}
		i := sort.Search(len(run), func(i int) bool { return run[i].LastSeq > c.Ckpt.Seq }) - 1
		if i >= end && run[i].Hash() == c.Ckpt.StateDigest {
			end = i + 1
		}
	}
	if end == 0 {
		return 0, nil
	}
	if err := dc.archive.AppendBatch(run[:end]); err != nil {
		return 0, fmt.Errorf("export: install blocks %d–%d: %w", run[0].Index, run[end-1].Index, err)
	}
	return end, nil
}

// SendDelete performs step ⑤ of Fig 4: sign and broadcast the delete
// authorization for everything up to index.
func (dc *DataCenter) SendDelete(index uint64, hash crypto.Digest) {
	del := &Delete{BlockIndex: index, BlockHash: hash, DC: dc.cfg.ID}
	signMsg(del, dc.kp)
	data := wire.Marshal(del)
	for _, replica := range dc.cfg.Replicas {
		_ = dc.tr.Send(replica, data)
	}
}

// WaitDeleteAcks blocks until minReplicas replicas acknowledged the delete
// of index (step ⑦) or the context expires.
func (dc *DataCenter) WaitDeleteAcks(ctx context.Context, index uint64, minReplicas int) error {
	for {
		dc.mu.Lock()
		n := len(dc.acks[index])
		dc.mu.Unlock()
		if n >= minReplicas {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("export: %d of %d delete acks for block %d: %w",
				n, minReplicas, index, ctx.Err())
		case <-dc.ackCh:
		}
	}
}

// SyncFrom copies blocks this data center lacks from a peer data center's
// archive, verifying linkage (step ③: "synchronized with the data centers
// of the other companies"; also error (iv) recovery).
func (dc *DataCenter) SyncFrom(peer *DataCenter) (int, error) {
	installed := 0
	for {
		next := dc.archive.HeadIndex() + 1
		b, err := peer.archive.Get(next)
		if err != nil {
			return installed, nil // peer has nothing newer
		}
		if err := dc.archive.Append(b); err != nil {
			return installed, fmt.Errorf("export: sync block %d: %w", next, err)
		}
		installed++
	}
}

// Group bundles the mutually distrustful data centers of the involved
// companies and orchestrates a full export round.
type Group struct {
	DCs []*DataCenter
}

// ExportReport aggregates one export round for Table II.
type ExportReport struct {
	BlockIndex     uint64
	BlocksExported int
	ReadDuration   time.Duration
	VerifyDuration time.Duration
	DeleteDuration time.Duration
}

// ExportRound runs the complete Fig 4 flow: one data center reads from the
// train, the group synchronizes and verifies, every data center signs the
// delete, and the round completes when 2f+1 replicas acknowledged pruning.
func (g *Group) ExportRound(ctx context.Context) (*ExportReport, error) {
	if len(g.DCs) == 0 {
		return nil, fmt.Errorf("export: empty data center group")
	}
	lead := g.DCs[0]
	res, err := lead.Read(ctx)
	if err != nil {
		return nil, err
	}

	// Step ③: synchronize between the companies' data centers; each
	// verifies linkage while installing.
	syncStart := time.Now()
	for _, dc := range g.DCs[1:] {
		if _, err := dc.SyncFrom(lead); err != nil {
			return nil, err
		}
	}
	verifyDur := res.VerifyDuration + time.Since(syncStart)

	// Step ⑤: every data center signs the delete.
	deleteStart := time.Now()
	for _, dc := range g.DCs {
		dc.SendDelete(res.BlockIndex, res.BlockHash)
	}
	minAcks := 2*lead.cfg.F + 1
	for _, dc := range g.DCs {
		if err := dc.WaitDeleteAcks(ctx, res.BlockIndex, minAcks); err != nil {
			return nil, err
		}
	}
	return &ExportReport{
		BlockIndex:     res.BlockIndex,
		BlocksExported: res.NewBlocks,
		ReadDuration:   res.ReadDuration,
		VerifyDuration: verifyDur,
		DeleteDuration: time.Since(deleteStart),
	}, nil
}
