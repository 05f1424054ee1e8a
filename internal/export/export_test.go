package export

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/pbft"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// fixture wires 4 replica export servers and 2 data centers over an inproc
// network, with the replicas' chains pre-populated.
type fixture struct {
	t        *testing.T
	net      *transport.Network
	replicas []crypto.NodeID
	kps      map[crypto.NodeID]*crypto.KeyPair
	reg      *crypto.Registry
	servers  map[crypto.NodeID]*Server
	stores   map[crypto.NodeID]*blockchain.Store
	dcs      []*DataCenter
}

const testInterval = 10

func newFixture(t *testing.T, nDCs int, deleteQuorum int) *fixture {
	t.Helper()
	fx := &fixture{
		t:       t,
		net:     transport.NewNetwork(),
		kps:     make(map[crypto.NodeID]*crypto.KeyPair),
		servers: make(map[crypto.NodeID]*Server),
		stores:  make(map[crypto.NodeID]*blockchain.Store),
	}
	t.Cleanup(func() { fx.net.Close() })

	var pairs []*crypto.KeyPair
	var dcIDs []crypto.NodeID
	for i := 0; i < 4; i++ {
		id := crypto.NodeID(i)
		fx.replicas = append(fx.replicas, id)
		kp := crypto.MustGenerateKeyPair(id)
		fx.kps[id] = kp
		pairs = append(pairs, kp)
	}
	for i := 0; i < nDCs; i++ {
		id := crypto.DataCenterIDBase + crypto.NodeID(i)
		dcIDs = append(dcIDs, id)
		kp := crypto.MustGenerateKeyPair(id)
		fx.kps[id] = kp
		pairs = append(pairs, kp)
	}
	fx.reg = crypto.NewRegistry(pairs...)

	for _, id := range fx.replicas {
		store, err := blockchain.NewStore("")
		if err != nil {
			t.Fatal(err)
		}
		fx.stores[id] = store
		fx.servers[id] = NewServer(ServerConfig{
			ID:           id,
			DeleteQuorum: deleteQuorum,
			DataCenters:  dcIDs,
		}, fx.kps[id], fx.reg, store, fx.net.Endpoint(id))
	}
	for _, id := range dcIDs {
		archive, err := blockchain.NewStore("")
		if err != nil {
			t.Fatal(err)
		}
		fx.dcs = append(fx.dcs, NewDataCenter(DataCenterConfig{
			ID:          id,
			Replicas:    fx.replicas,
			ReadTimeout: 5 * time.Second,
		}, fx.kps[id], fx.reg, archive, fx.net.Endpoint(id)))
	}
	return fx
}

// addBlocks appends n new blocks to every replica and feeds the matching
// stable checkpoints into the export servers.
// nextBlock deterministically builds the block that follows head, the same
// way on every caller.
func nextBlock(head *blockchain.Block) *blockchain.Block {
	builder := blockchain.NewBuilder(head, testInterval)
	var block *blockchain.Block
	for j := 0; j < testInterval; j++ {
		seq := head.LastSeq + uint64(j) + 1
		block = builder.Add(blockchain.Entry{
			Seq:     seq,
			Origin:  crypto.NodeID(seq % 4),
			Payload: []byte(fmt.Sprintf("payload-%d", seq)),
		})
	}
	return block
}

// checkpointFor returns the 2f+1 stable checkpoint proof certifying block.
func (fx *fixture) checkpointFor(block *blockchain.Block) pbft.CheckpointProof {
	proof := pbft.CheckpointProof{Seq: block.LastSeq, StateDigest: block.Hash()}
	for _, id := range fx.replicas[:3] { // 2f+1 = 3 signatures
		proof.Checkpoints = append(proof.Checkpoints,
			pbft.NewSignedCheckpoint(block.LastSeq, block.Hash(), fx.kps[id]))
	}
	return proof
}

func (fx *fixture) addBlocks(n int) {
	fx.t.Helper()
	for i := 0; i < n; i++ {
		// Build the identical next block on every replica.
		block := nextBlock(fx.stores[0].Head())
		proof := fx.checkpointFor(block)
		for _, id := range fx.replicas {
			if err := fx.stores[id].Append(mustClone(fx.t, block)); err != nil {
				fx.t.Fatal(err)
			}
			fx.servers[id].OnStableCheckpoint(proof)
		}
	}
}

// mustClone deep-copies a block through its codec so replicas do not share
// memory.
func mustClone(t *testing.T, b *blockchain.Block) *blockchain.Block {
	t.Helper()
	c, err := blockchain.Unmarshal(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReadExportsBlocks(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(3)

	res, err := fx.dcs[0].Read(context.Background())
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if res.BlockIndex != 3 || res.NewBlocks != 3 {
		t.Errorf("result = %+v", res)
	}
	if fx.dcs[0].LastExported() != 3 {
		t.Errorf("archive head = %d", fx.dcs[0].LastExported())
	}
	if err := fx.dcs[0].Archive().VerifyChain(); err != nil {
		t.Errorf("archive verification: %v", err)
	}
}

func TestReadIncremental(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(2)
	if _, err := fx.dcs[0].Read(context.Background()); err != nil {
		t.Fatal(err)
	}
	fx.addBlocks(2)
	res, err := fx.dcs[0].Read(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.NewBlocks != 2 || res.BlockIndex != 4 {
		t.Errorf("incremental read = %+v", res)
	}
}

func TestReadWithNoNewBlocks(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(1)
	if _, err := fx.dcs[0].Read(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := fx.dcs[0].Read(context.Background())
	if err != nil {
		t.Fatalf("second read: %v", err)
	}
	if res.NewBlocks != 0 {
		t.Errorf("NewBlocks = %d", res.NewBlocks)
	}
}

func TestReadFailsWithoutCheckpoints(t *testing.T) {
	fx := newFixture(t, 1, 1)
	// Replicas have only genesis: no stable checkpoint to offer.
	_, err := fx.dcs[0].Read(context.Background())
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("Read = %v, want ErrNoCheckpoint", err)
	}
}

func TestReadTimesOutWhenReplicasDead(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(1)
	for _, id := range fx.replicas {
		fx.net.Isolate(id)
	}
	fx.dcs[0].cfg.ReadTimeout = 200 * time.Millisecond
	_, err := fx.dcs[0].Read(context.Background())
	if !errors.Is(err, ErrReadTimeout) {
		t.Errorf("Read = %v, want ErrReadTimeout", err)
	}
}

func TestReadSurvivesFFaultyReplicas(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(2)
	fx.net.Isolate(3) // f=1 replica unreachable
	res, err := fx.dcs[0].Read(context.Background())
	if err != nil {
		// The random block source may be the dead replica; one retry
		// must succeed (the paper's "delay the export until another
		// node is queried").
		res, err = fx.dcs[0].Read(context.Background())
		if err != nil {
			res, err = fx.dcs[0].Read(context.Background())
		}
	}
	if err != nil {
		t.Fatalf("Read with f dead replicas: %v", err)
	}
	if res.BlockIndex != 2 {
		t.Errorf("BlockIndex = %d", res.BlockIndex)
	}
}

func TestFullExportRoundPrunesReplicas(t *testing.T) {
	fx := newFixture(t, 2, 2)
	fx.addBlocks(4)

	group := &Group{DCs: fx.dcs}
	report, err := group.ExportRound(context.Background())
	if err != nil {
		t.Fatalf("ExportRound: %v", err)
	}
	if report.BlockIndex != 4 || report.BlocksExported != 4 {
		t.Errorf("report = %+v", report)
	}

	// Both archives hold the chain.
	for i, dc := range fx.dcs {
		if dc.LastExported() != 4 {
			t.Errorf("dc%d archive head = %d", i, dc.LastExported())
		}
		if err := dc.Archive().VerifyChain(); err != nil {
			t.Errorf("dc%d archive: %v", i, err)
		}
	}

	// ExportRound returns once 2f+1 replicas acked; wait for all four
	// before checking that every replica pruned.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, dc := range fx.dcs {
		if err := dc.WaitDeleteAcks(ctx, 4, len(fx.replicas)); err != nil {
			t.Fatalf("dc%d: %v", i, err)
		}
	}

	// Replicas pruned to the exported boundary, keeping it as base, with
	// a verifiable delete certificate.
	for _, id := range fx.replicas {
		store := fx.stores[id]
		if store.Base() != 4 {
			t.Errorf("replica %v base = %d, want 4", id, store.Base())
			continue
		}
		cert, err := UnmarshalDeleteCertificate(store.PruneAuth())
		if err != nil {
			t.Errorf("replica %v prune auth: %v", id, err)
			continue
		}
		if err := cert.Verify(fx.reg, 2); err != nil {
			t.Errorf("replica %v certificate: %v", id, err)
		}
		if err := store.VerifyChain(); err != nil {
			t.Errorf("replica %v chain after prune: %v", id, err)
		}
	}
}

func TestInsufficientDeletesDoNotPrune(t *testing.T) {
	fx := newFixture(t, 2, 2) // quorum of 2 DCs required
	fx.addBlocks(2)

	res, err := fx.dcs[0].Read(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Only one DC signs the delete: below quorum (§III-D error (iii)).
	fx.dcs[0].SendDelete(res.BlockIndex, res.BlockHash)
	time.Sleep(100 * time.Millisecond)
	for _, id := range fx.replicas {
		if fx.stores[id].Base() != 0 {
			t.Errorf("replica %v pruned on a single delete", id)
		}
	}
}

func TestDeleteWithWrongHashIgnored(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(1)
	fx.dcs[0].SendDelete(1, crypto.Hash([]byte("wrong")))
	time.Sleep(100 * time.Millisecond)
	for _, id := range fx.replicas {
		if fx.stores[id].Base() != 0 {
			t.Errorf("replica %v pruned on mismatched hash", id)
		}
	}
}

func TestEarlyDeleteParkedUntilBlockExists(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(1)

	// A delete for block 2 arrives before block 2 exists (error (i)).
	// The future block's hash is predictable because the workload is.
	future := nextBlock(fx.stores[0].Head())
	fx.dcs[0].SendDelete(2, future.Hash())
	time.Sleep(100 * time.Millisecond)
	for _, id := range fx.replicas {
		if fx.stores[id].Base() != 0 {
			t.Fatalf("replica %v executed a delete for a nonexistent block", id)
		}
	}

	// Once the block and checkpoint are created, the parked delete runs.
	fx.addBlocks(1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		pruned := true
		for _, id := range fx.replicas {
			if fx.stores[id].Base() != 2 {
				pruned = false
			}
		}
		if pruned {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parked delete never executed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDelayedDataCenterSyncsFromPeer(t *testing.T) {
	fx := newFixture(t, 2, 2)
	fx.addBlocks(3)

	// dc0 exports alone; dc1 was offline (error (iv)).
	if _, err := fx.dcs[0].Read(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fx.dcs[1].LastExported() != 0 {
		t.Fatal("dc1 unexpectedly has blocks")
	}
	n, err := fx.dcs[1].SyncFrom(fx.dcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || fx.dcs[1].LastExported() != 3 {
		t.Errorf("synced %d blocks, head %d", n, fx.dcs[1].LastExported())
	}
	if err := fx.dcs[1].Archive().VerifyChain(); err != nil {
		t.Errorf("synced archive: %v", err)
	}
}

func TestStateTransferBetweenReplicas(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(3)

	// A fresh replica r9 joins with an empty store and catches up from r0,
	// including the prune authorization (error (ii)).
	kp := crypto.MustGenerateKeyPair(9)
	fx.reg.Add(9, kp.Public)
	store, err := blockchain.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	replyCh := make(chan *StateReply, 1)
	ep := fx.net.Endpoint(9)
	ep.SetHandler(func(from crypto.NodeID, data []byte) {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		if sr, ok := msg.(*StateReply); ok {
			replyCh <- sr
		}
	})
	req := &StateRequest{FromIndex: 1, Replica: 9}
	signMsg(req, kp)
	if err := ep.Send(0, wire.Marshal(req)); err != nil {
		t.Fatal(err)
	}

	select {
	case reply := <-replyCh:
		blocks := reply.Blocks
		if err := blockchain.VerifySegment(blockchain.Genesis().Header, blocks); err != nil {
			t.Fatalf("transferred segment: %v", err)
		}
		for _, b := range blocks {
			if err := store.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if store.HeadIndex() != 3 {
			t.Errorf("caught-up head = %d", store.HeadIndex())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no state reply")
	}
}

func TestForgedDeleteRejected(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(1)
	block, err := fx.stores[0].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	// An attacker without the DC key forges a delete.
	attacker := crypto.MustGenerateKeyPair(777)
	fx.reg.Add(777, attacker.Public)
	del := &Delete{BlockIndex: 1, BlockHash: block.Hash(), DC: crypto.DataCenterIDBase}
	signMsg(del, attacker) // wrong key for the claimed DC
	ep := fx.net.Endpoint(777)
	_ = ep.Send(0, wire.Marshal(del))
	time.Sleep(100 * time.Millisecond)
	if fx.stores[0].Base() != 0 {
		t.Error("forged delete pruned the chain")
	}
}

func TestDeleteCertificateVerify(t *testing.T) {
	fx := newFixture(t, 3, 3)
	fx.addBlocks(1)
	block, err := fx.stores[0].Get(1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(dcIdx int) Delete {
		id := crypto.DataCenterIDBase + crypto.NodeID(dcIdx)
		del := Delete{BlockIndex: 1, BlockHash: block.Hash(), DC: id}
		signMsg(&del, fx.kps[id])
		return del
	}
	cert := DeleteCertificate{BlockIndex: 1, BlockHash: block.Hash(),
		Deletes: []Delete{mk(0), mk(1), mk(2)}}
	if err := cert.Verify(fx.reg, 3); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Round trip.
	decoded, err := UnmarshalDeleteCertificate(cert.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Verify(fx.reg, 3); err != nil {
		t.Errorf("decoded Verify: %v", err)
	}
	// Duplicate signers do not reach quorum.
	dup := DeleteCertificate{BlockIndex: 1, BlockHash: block.Hash(),
		Deletes: []Delete{mk(0), mk(0), mk(0)}}
	if err := dup.Verify(fx.reg, 3); !errors.Is(err, ErrInsufficientDeletes) {
		t.Errorf("dup Verify = %v", err)
	}
}

// TestSecondRoundFetchesMissingBlocks: the first randomly chosen block
// source is Byzantine and returns checkpoints but no blocks; the paper's
// second round retries with another source and completes the export.
func TestSecondRoundFetchesMissingBlocks(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(2)

	// Make replica 0 a lying block source: it answers reads with a valid
	// checkpoint but never includes blocks. We do that by pruning... no:
	// replace its store content is complex; instead intercept its
	// outbound ReadReply messages and strip the blocks.
	fx.net.SetInterceptor(0, func(to crypto.NodeID, data []byte) (time.Duration, bool) {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			return 0, false
		}
		if rr, ok := msg.(*ReadReply); ok && len(rr.Blocks) > 0 {
			return 0, true // drop the block-carrying reply entirely
		}
		return 0, false
	})

	// Force the DC's first pick to be replica 0 by trying seeds until the
	// first round would select it; simpler: just run Read — with retries
	// inside, any unlucky pick is retried with a fresh source.
	deadline := time.Now().Add(20 * time.Second)
	for {
		res, err := fx.dcs[0].Read(context.Background())
		if err == nil && res.BlockIndex == 2 && fx.dcs[0].LastExported() == 2 {
			return // success via first or second round
		}
		if time.Now().After(deadline) {
			t.Fatalf("export never completed: %v", err)
		}
	}
}

// TestByzantineSourceCannotPoisonArchive: replica 0 holds a forged chain —
// linked from genesis, its replies correctly signed — while every replica
// offers the honest 2f+1 checkpoints. The data center's first block source
// is replica 0. The archive must never hold a block the honest replicas do
// not, and a later round with an honest source must complete the export.
func TestByzantineSourceCannotPoisonArchive(t *testing.T) {
	fx := newFixture(t, 1, 1)
	const blocks = 3
	for i := 0; i < blocks; i++ {
		honest := nextBlock(fx.stores[1].Head())
		proof := fx.checkpointFor(honest)
		forger := blockchain.NewBuilder(fx.stores[0].Head(), testInterval)
		var forged *blockchain.Block
		for j := uint64(1); forged == nil; j++ {
			seq := fx.stores[0].Head().LastSeq + j
			forged = forger.Add(blockchain.Entry{
				Seq: seq, Origin: crypto.NodeID(seq % 4), Payload: []byte(fmt.Sprintf("forged-%d", seq)),
			})
		}
		for _, id := range fx.replicas {
			b := mustClone(t, honest)
			if id == 0 {
				b = forged
			}
			if err := fx.stores[id].Append(b); err != nil {
				t.Fatal(err)
			}
			fx.servers[id].OnStableCheckpoint(proof)
		}
	}

	dc := fx.dcs[0]
	fx.askFirst(dc, 0)

	for round := 0; ; round++ {
		_, err := dc.Read(context.Background())
		archive := dc.Archive()
		for idx := uint64(1); idx <= archive.HeadIndex(); idx++ {
			got, gerr := archive.Get(idx)
			want, werr := fx.stores[1].Get(idx)
			if gerr != nil || werr != nil || got.Hash() != want.Hash() {
				t.Fatalf("round %d: archive block %d is not the honest replicas' block", round, idx)
			}
		}
		if err == nil && archive.HeadIndex() == blocks {
			return
		}
		if round == 20 {
			t.Fatalf("export never completed: head %d, last error %v", archive.HeadIndex(), err)
		}
	}
}

// askFirst seeds dc's block-source choice so its next read round asks
// replica id for the blocks.
func (fx *fixture) askFirst(dc *DataCenter, id crypto.NodeID) {
	seed := int64(0)
	for fx.replicas[rand.New(rand.NewSource(seed)).Intn(len(fx.replicas))] != id {
		seed++
	}
	dc.rng = rand.New(rand.NewSource(seed))
}

// TestStaleSourceInstallsItsCertifiedPrefix: the block source lags one
// checkpoint behind the best one the round offers. Its run ends below the
// best checkpoint, but its own verified checkpoint certifies that end, so
// the round archives the run and leaves only the newest block missing.
func TestStaleSourceInstallsItsCertifiedPrefix(t *testing.T) {
	fx := newFixture(t, 1, 1)
	fx.addBlocks(2)
	block := nextBlock(fx.stores[1].Head())
	proof := fx.checkpointFor(block)
	for _, id := range fx.replicas[1:] {
		if err := fx.stores[id].Append(mustClone(t, block)); err != nil {
			t.Fatal(err)
		}
		fx.servers[id].OnStableCheckpoint(proof)
	}

	dc := fx.dcs[0]
	fx.askFirst(dc, 0)
	_, err := dc.readRoundOnce(context.Background())
	var missing errMissingBlocks
	if !errors.As(err, &missing) {
		t.Fatalf("round with a stale source = %v, want missing blocks", err)
	}
	if dc.LastExported() != 2 {
		t.Errorf("archive head = %d, want the stale source's certified block 2", dc.LastExported())
	}
	if _, err := dc.Read(context.Background()); err != nil || dc.LastExported() != 3 {
		t.Errorf("next read: %v, archive head %d, want 3", err, dc.LastExported())
	}
}

// lyingIndex is a Byzantine replica's transport: every ReadReply it sends
// names index as its BlockIndex, correctly re-signed, while the checkpoint
// proof and the blocks stay honest.
type lyingIndex struct {
	transport.Transport
	kp    *crypto.KeyPair
	index uint64
}

func (l *lyingIndex) Send(to crypto.NodeID, data []byte) error {
	if msg, err := wire.Unmarshal(data); err == nil {
		if rr, ok := msg.(*ReadReply); ok {
			rr.BlockIndex = l.index
			signMsg(rr, l.kp)
			data = wire.Marshal(rr)
		}
	}
	return l.Transport.Send(to, data)
}

// TestByzantineReplyWrongIndex: replica 0 alone offers the newest stable
// checkpoint, and is the block source, but its replies claim a false
// BlockIndex. The data center must take the index from the archived block
// whose hash the proof certifies, never from the claim: the export round
// reads, deletes and prunes through the true index.
func TestByzantineReplyWrongIndex(t *testing.T) {
	for _, lie := range []uint64{1, 7} {
		t.Run(fmt.Sprintf("claims %d", lie), func(t *testing.T) {
			fx := newFixture(t, 1, 1)
			fx.servers[0] = NewServer(ServerConfig{
				ID:           0,
				DeleteQuorum: 1,
				DataCenters:  []crypto.NodeID{crypto.DataCenterIDBase},
			}, fx.kps[0], fx.reg, fx.stores[0], &lyingIndex{Transport: fx.net.Endpoint(0), kp: fx.kps[0], index: lie})
			fx.addBlocks(2)
			block := nextBlock(fx.stores[1].Head())
			for _, id := range fx.replicas {
				if err := fx.stores[id].Append(mustClone(t, block)); err != nil {
					t.Fatal(err)
				}
			}
			fx.servers[0].OnStableCheckpoint(fx.checkpointFor(block))

			dc := fx.dcs[0]
			fx.askFirst(dc, 0)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			report, err := (&Group{DCs: fx.dcs}).ExportRound(ctx)
			if err != nil {
				t.Fatalf("ExportRound: %v", err)
			}
			if report.BlockIndex != 3 || dc.LastExported() != 3 {
				t.Fatalf("exported through %d, archive head %d, want the certified block 3", report.BlockIndex, dc.LastExported())
			}
			if dc.Archive().Head().Hash() != block.Hash() {
				t.Error("archive head is not the certified block")
			}
			if err := dc.WaitDeleteAcks(ctx, 3, len(fx.replicas)); err != nil {
				t.Fatal(err)
			}
			for _, id := range fx.replicas {
				if base := fx.stores[id].Base(); base != 3 {
					t.Errorf("replica %d pruned to %d, want 3", id, base)
				}
			}
		})
	}
}
