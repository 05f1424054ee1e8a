package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/export"
	"zugchain/internal/netsim"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
)

// TableIIRow is one export measurement of Table II.
type TableIIRow struct {
	Blocks   int
	Read     time.Duration
	Delete   time.Duration
	Verify   time.Duration
	Exported int
	// ReplyBytes is what the data center received in the read round: the
	// wire bytes of the replies it collected over the uplink.
	ReplyBytes int
}

// TableIIBlockCounts are the paper's export sizes (500 blocks ≈ 5 minutes of
// operation at a 64 ms cycle; 16,000 ≈ 3 hours).
var TableIIBlockCounts = []int{500, 1000, 2000, 4000, 8000, 16000}

// TableIIOptions tunes the export experiment.
type TableIIOptions struct {
	// BlockCounts overrides the default sweep.
	BlockCounts []int
	// Link is the shaped uplink; defaults to the paper's LTE profile.
	Link netsim.LinkProfile
	// EntriesPerBlock matches the paper's block size of 10 requests.
	EntriesPerBlock int
	// EntryPayload sizes each logged record; the paper's JRU traces are
	// compact (~100 B per filtered record).
	EntryPayload int
}

func (o *TableIIOptions) applyDefaults() {
	if len(o.BlockCounts) == 0 {
		o.BlockCounts = TableIIBlockCounts
	}
	if o.Link.BandwidthBps == 0 {
		o.Link = netsim.LTE
	}
	if o.EntriesPerBlock == 0 {
		o.EntriesPerBlock = 10
	}
	if o.EntryPayload == 0 {
		o.EntryPayload = 100
	}
}

// TableII reproduces the export experiment: read (checkpoints from 2f+1
// replicas plus all blocks from one), verification, and delete latency for
// 500–16,000 blocks over an LTE-shaped uplink. The replica chains are
// synthesized directly (running 3 hours of consensus to create 16,000 blocks
// is pointless for measuring the export path), with genuine 2f+1-signed
// checkpoint proofs.
func TableII(opt TableIIOptions) ([]TableIIRow, error) {
	opt.applyDefaults()

	rows := make([]TableIIRow, 0, len(opt.BlockCounts))
	for _, count := range opt.BlockCounts {
		row, err := runTableIIPoint(count, opt)
		if err != nil {
			return nil, fmt.Errorf("table II at %d blocks: %w", count, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func runTableIIPoint(count int, opt TableIIOptions) (*TableIIRow, error) {
	net := transport.NewNetwork()
	defer net.Close()

	// Four replicas with identical synthesized chains.
	replicaIDs := []crypto.NodeID{0, 1, 2, 3}
	kps := make(map[crypto.NodeID]*crypto.KeyPair)
	var pairs []*crypto.KeyPair
	for _, id := range replicaIDs {
		kp := crypto.MustGenerateKeyPair(id)
		kps[id] = kp
		pairs = append(pairs, kp)
	}
	dcID := crypto.DataCenterIDBase
	dcKP := crypto.MustGenerateKeyPair(dcID)
	pairs = append(pairs, dcKP)
	reg := crypto.NewRegistry(pairs...)

	blocks := synthesizeChain(count, opt)

	servers := make([]*export.Server, 0, len(replicaIDs))
	for _, id := range replicaIDs {
		store, err := blockchain.NewStore("")
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			if err := store.Append(b); err != nil {
				return nil, err
			}
		}
		srv := export.NewServer(export.ServerConfig{
			ID:           id,
			DeleteQuorum: 1,
			DataCenters:  []crypto.NodeID{dcID},
		}, kps[id], reg, store, net.Endpoint(id))
		servers = append(servers, srv)
	}

	// One stable checkpoint proof for the chain head, signed by 2f+1.
	head := blocks[len(blocks)-1]
	proof := pbft.CheckpointProof{
		Seq:         head.LastSeq,
		StateDigest: head.Hash(),
	}
	for _, id := range replicaIDs[:3] {
		proof.Checkpoints = append(proof.Checkpoints,
			pbft.NewSignedCheckpoint(proof.Seq, head.Hash(), kps[id]))
	}
	for _, srv := range servers {
		srv.OnStableCheckpoint(proof)
	}

	// The data center behind the shaped LTE uplink.
	archive, err := blockchain.NewStore("")
	if err != nil {
		return nil, err
	}
	shaped := netsim.NewShaped(net.Endpoint(dcID), opt.Link)
	defer shaped.Close()
	dc := export.NewDataCenter(export.DataCenterConfig{
		ID:          dcID,
		Replicas:    replicaIDs,
		ReadTimeout: 10 * time.Minute,
	}, dcKP, reg, archive, shaped)

	ctx := context.Background()
	res, err := dc.Read(ctx)
	if err != nil {
		return nil, err
	}

	deleteStart := time.Now()
	dc.SendDelete(res.BlockIndex, res.BlockHash)
	if err := dc.WaitDeleteAcks(ctx, res.BlockIndex, 3); err != nil {
		return nil, err
	}
	deleteDur := time.Since(deleteStart)

	return &TableIIRow{
		Blocks:     count,
		Read:       res.ReadDuration,
		Delete:     deleteDur,
		Verify:     res.VerifyDuration,
		Exported:   res.NewBlocks,
		ReplyBytes: res.ReplyBytes,
	}, nil
}

// synthesizeChain builds count blocks of JRU-like records.
func synthesizeChain(count int, opt TableIIOptions) []*blockchain.Block {
	builder := blockchain.NewBuilder(blockchain.Genesis(), opt.EntriesPerBlock)
	blocks := make([]*blockchain.Block, 0, count)
	seq := uint64(0)
	for len(blocks) < count {
		seq++
		rec := signal.Record{
			Cycle: seq,
			Signals: []signal.Signal{{
				Port:   signal.PortBulk,
				Kind:   signal.KindBulkData,
				Cycle:  seq,
				Opaque: make([]byte, opt.EntryPayload),
			}},
		}
		if b := builder.Add(blockchain.Entry{
			Seq:     seq,
			Origin:  crypto.NodeID(seq % 4),
			Payload: rec.Marshal(),
		}); b != nil {
			blocks = append(blocks, b)
		}
	}
	return blocks
}

// FormatTableII renders the export latency table like the paper's Table II.
func FormatTableII(rows []TableIIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: latency of read, delete, and verify during export\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %10s %12s\n",
		"#blocks", "read", "delete", "verify", "exported", "bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %12v %12v %12v %10d %12d\n",
			r.Blocks,
			r.Read.Round(10*time.Millisecond),
			r.Delete.Round(time.Millisecond),
			r.Verify.Round(time.Millisecond),
			r.Exported, r.ReplyBytes)
	}
	return b.String()
}
