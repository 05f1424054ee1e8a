package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"zugchain/internal/blockchain"
	"zugchain/internal/crypto"
	"zugchain/internal/export"
	"zugchain/internal/netsim"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
)

const (
	// exportBlocks is one export round: Table II's 2000-block row.
	exportBlocks = 2000
	// Table II's chain shape: 10 records of about 100 B per block; each
	// record's opaque payload is 80–120 B, drawn from the seed.
	exportEntries = 10
	exportPayload = 100
)

// exportEnv is four replicas' export servers holding a chain, and a data
// center reading it over the LTE-shaped link. The replicas are bare
// export.Servers, not node.New replicas: the benchmark appends the blocks
// to their stores itself and signs the 2f+1 checkpoint certificates with
// the replicas' keys, so the workload measures export alone and its set-up
// does not run PBFT for 2000 blocks.
type exportEnv struct {
	seed    int64
	ids     []crypto.NodeID
	kps     map[crypto.NodeID]*crypto.KeyPair
	reg     *crypto.Registry
	net     *transport.Network
	tap     *netTap
	stores  []*blockchain.Store
	servers []*export.Server
	dc      *export.DataCenter
	link    *netsim.Shaped

	builder *blockchain.Builder
	seq     uint64
	hashes  map[uint64]crypto.Digest // every block handed to the replicas
}

func newExportEnv(seed int64, traced bool) (*exportEnv, error) {
	e := &exportEnv{
		seed:    seed,
		kps:     make(map[crypto.NodeID]*crypto.KeyPair),
		net:     transport.NewNetwork(),
		tap:     &netTap{timed: traced},
		builder: blockchain.NewBuilder(blockchain.Genesis(), exportEntries),
		hashes:  make(map[uint64]crypto.Digest),
	}
	keyRand := rand.New(rand.NewSource(seed))
	dcID := crypto.DataCenterIDBase
	var pairs []*crypto.KeyPair
	for _, id := range []crypto.NodeID{0, 1, 2, 3, dcID} {
		kp, err := crypto.GenerateKeyPair(id, keyRand)
		if err != nil {
			return nil, err
		}
		e.kps[id] = kp
		pairs = append(pairs, kp)
		if id != dcID {
			e.ids = append(e.ids, id)
		}
	}
	e.reg = crypto.NewRegistry(pairs...)
	for _, id := range e.ids {
		store, err := blockchain.NewStore("")
		if err != nil {
			return nil, err
		}
		tr := &tapTransport{under: e.net.Endpoint(id), tap: e.tap, peers: numReplicas}
		e.stores = append(e.stores, store)
		e.servers = append(e.servers, export.NewServer(export.ServerConfig{
			ID:           id,
			DeleteQuorum: 1,
			DataCenters:  []crypto.NodeID{dcID},
		}, e.kps[id], e.reg, store, tr))
	}
	archive, err := blockchain.NewStore("")
	if err != nil {
		return nil, err
	}
	e.link = netsim.NewShaped(e.net.Endpoint(dcID), netsim.LTE)
	e.dc = export.NewDataCenter(export.DataCenterConfig{
		ID:          dcID,
		Replicas:    e.ids,
		ReadTimeout: time.Minute,
		Seed:        seed,
	}, e.kps[dcID], e.reg, archive, e.link)
	return e, nil
}

func (e *exportEnv) close() {
	_ = e.link.Close()
	_ = e.net.Close()
}

// extend appends count new blocks of JRU-like records to every replica and
// certifies the new head with a 2f+1 stable checkpoint.
func (e *exportEnv) extend(count int) error {
	var blocks []*blockchain.Block
	for len(blocks) < count {
		e.seq++
		key := uint64(e.seed)<<32 ^ e.seq
		opaque := make([]byte, exportPayload-20+int(splitmix64(key)%41))
		fill(opaque, key)
		rec := signal.Record{Cycle: e.seq, Signals: []signal.Signal{{
			Port: signal.PortBulk, Kind: signal.KindBulkData, Cycle: e.seq, Opaque: opaque,
		}}}
		if b := e.builder.Add(blockchain.Entry{
			Seq: e.seq, Origin: crypto.NodeID(e.seq % numReplicas), Payload: rec.Marshal(),
		}); b != nil {
			blocks = append(blocks, b)
			e.hashes[b.Index] = b.Hash()
		}
	}
	for _, s := range e.stores {
		if err := s.AppendBatch(blocks); err != nil {
			return err
		}
	}
	head := blocks[len(blocks)-1]
	proof := pbft.CheckpointProof{Seq: head.Index * pbft.DefaultCheckpointInterval, StateDigest: head.Hash()}
	for _, id := range e.ids[:quorumSize] {
		proof.Checkpoints = append(proof.Checkpoints, pbft.NewSignedCheckpoint(proof.Seq, head.Hash(), e.kps[id]))
	}
	for _, srv := range e.servers {
		srv.OnStableCheckpoint(proof)
	}
	return nil
}

// checkRead checks the checkpoint proof a read round's data center
// accepted: 2f+1 replicas signed it, and it certifies the block the
// replicas hold at the proven index.
func (e *exportEnv) checkRead(res *export.ReadResult) error {
	if err := res.Proof.Verify(e.reg, quorumSize); err != nil {
		return fmt.Errorf("accepted checkpoint proof: %w", err)
	}
	if res.Proof.StateDigest != res.BlockHash || e.hashes[res.BlockIndex] != res.BlockHash {
		return fmt.Errorf("accepted checkpoint proof certifies block %d with another hash than the replicas'", res.BlockIndex)
	}
	return nil
}

// check verifies the archive: it links, every block is the one the
// replicas held, and its head is the block the last accepted checkpoint
// proof certifies.
func (e *exportEnv) check(last *export.ReadResult) error {
	archive := e.dc.Archive()
	if err := archive.VerifyChain(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	head := archive.Head()
	if head.Index != last.BlockIndex || head.Hash() != last.Proof.StateDigest {
		return fmt.Errorf("archive head %d is not the checkpointed block %d", head.Index, last.BlockIndex)
	}
	for idx := archive.Base(); idx <= head.Index; idx++ {
		if idx == 0 {
			continue
		}
		b, err := archive.Get(idx)
		if err != nil {
			return fmt.Errorf("archive block %d: %w", idx, err)
		}
		if b.Hash() != e.hashes[idx] {
			return fmt.Errorf("archive block %d differs from the replicas'", idx)
		}
	}
	return nil
}

// runExport times opts.setups environment set-ups (servers, stores, link,
// the first 2000 blocks) and runs export rounds on the last for the
// window: read and verify 2000 blocks, then the delete round.
//
// A set-up is timed by the process CPU time it takes, not the wall clock:
// it is pure CPU work that never waits, and on a shared 2-core VM the
// wall-clock median of 25 set-ups spread by 26 % over ten runs (time the
// hypervisor gave other tenants) where the CPU time spread by 8 %.
func runExport(o runOpts) (*result, error) {
	var setups []float64
	var e *exportEnv
	for i := 0; i < o.setups; i++ {
		runtime.GC() // leave the previous set-up's garbage out of this one
		cpu0 := processCPU()
		env, err := newExportEnv(o.seed, o.traced)
		if err == nil {
			err = env.extend(exportBlocks)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, (processCPU() - cpu0).Seconds())
		if i < o.setups-1 {
			env.close()
			continue
		}
		e = env
	}
	defer e.close()

	ctx := context.Background()
	heap := startHeapSampler()
	var sum, zero snapshot
	var lat []float64
	var last *export.ReadResult
	var blocks, rounds int
	var readS, waitS, verifyS, deleteS float64
	start := time.Now()
	for rounds == 0 || time.Since(start) < o.seconds {
		if rounds > 0 {
			if err := e.extend(exportBlocks); err != nil {
				return nil, err
			}
		}
		before := takeSnapshot(e.tap, 0, nil)
		t0 := time.Now()
		res, err := e.dc.Read(ctx)
		if err != nil {
			return nil, errIncorrect{fmt.Errorf("read round %d: %w", rounds, err)}
		}
		t1 := time.Now()
		e.dc.SendDelete(res.BlockIndex, res.BlockHash)
		if err := e.dc.WaitDeleteAcks(ctx, res.BlockIndex, quorumSize); err != nil {
			return nil, errIncorrect{fmt.Errorf("delete round %d: %w", rounds, err)}
		}
		t2 := time.Now()
		addDelta(&sum, before, takeSnapshot(e.tap, 0, nil))
		if res.NewBlocks != exportBlocks {
			return nil, errIncorrect{fmt.Errorf("round %d exported %d of %d blocks", rounds, res.NewBlocks, exportBlocks)}
		}
		if err := e.checkRead(res); err != nil {
			return nil, errIncorrect{fmt.Errorf("round %d: %w", rounds, err)}
		}
		last = res
		for i := 0; i < res.NewBlocks; i++ {
			lat = append(lat, float64(t2.Sub(t0))/1e6)
		}
		blocks += res.NewBlocks
		readS += t1.Sub(t0).Seconds()
		waitS += res.ReadDuration.Seconds()
		verifyS += res.VerifyDuration.Seconds()
		deleteS += t2.Sub(t1).Seconds()
		rounds++
	}
	peak := heap.close()
	if err := e.check(last); err != nil {
		return nil, errIncorrect{err}
	}
	ops := float64(blocks)
	s := summarize(lat)
	res := &result{attempted: blocks, e2e: map[string]float64{
		"ops_per_s":       ops / readS,
		"latency_p50_ms":  s.p50,
		"latency_tail_ms": s.tail,
		"setup_s":         median(setups),
	}}
	costs(zero, sum, ops, res.e2e)
	fmt.Printf("export-lte: %d rounds, %d blocks; read %.3fs verify %.3fs delete %.3fs per round\n",
		rounds, blocks, readS/float64(rounds), verifyS/float64(rounds), deleteS/float64(rounds))
	if o.traced {
		m := make(map[string]float64)
		sharedLayers(e.tap, zero, sum, ops, peak, m)
		m["export.read_wait_share"] = ratio(waitS, readS+deleteS)
		m["export.verify_ms"] = verifyS / float64(rounds) * 1000
		m["export.bytes_per_block"] = ratio(float64(sum.bytes[clsExport]), ops)
		m["export.delete_ms"] = deleteS / float64(rounds) * 1000
		m["bench.latency_samples"] = float64(s.n)
		m["bench.tail_percentile"] = s.tailPct
		res.layers = m
	}
	return res, nil
}

// addDelta adds after-before of every counter to sum.
func addDelta(sum *snapshot, before, after snapshot) {
	sum.cpu += after.cpu - before.cpu
	sum.allocBytes += after.allocBytes - before.allocBytes
	sum.gcCycles += after.gcCycles - before.gcCycles
	for i := range sum.msgs {
		sum.msgs[i] += after.msgs[i] - before.msgs[i]
		sum.bytes[i] += after.bytes[i] - before.bytes[i]
		sum.calls[i] += after.calls[i] - before.calls[i]
	}
	sum.sendNs += after.sendNs - before.sendNs
	sum.sendN += after.sendN - before.sendN
	sum.deliverNs += after.deliverNs - before.deliverNs
	sum.deliverN += after.deliverN - before.deliverN
}
