package pbft

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// referenceSigningBytes is the seed's clear-and-restore implementation, kept
// as the specification signingBytesInto must match byte-for-byte.
func referenceSigningBytes(m signable) []byte {
	saved := m.signature()
	m.setSignature(nil)
	e := wire.NewEncoder(256)
	e.Uint16(uint16(m.WireType()))
	m.EncodeWire(e)
	m.setSignature(saved)
	return append([]byte(nil), e.Data()...)
}

// sampleSignables builds one signed instance of every signed PBFT message
// type, including the nested view-change shapes. Commit is MAC'd, not
// signed: TestCommitAuthBytes covers its encoding.
func sampleSignables(kp *crypto.KeyPair) []signable {
	req := Request{Payload: []byte("payload"), Origin: kp.ID}
	SignRequest(&req, kp)
	pp := &PrePrepare{View: 3, Seq: 7, Req: req, Replica: kp.ID}
	sign(pp, kp)
	prep := &Prepare{View: 3, Seq: 7, Digest: crypto.Hash([]byte("d")), Replica: kp.ID}
	sign(prep, kp)
	cp := &Checkpoint{Seq: 10, StateDigest: crypto.Hash([]byte("s")), Replica: kp.ID}
	sign(cp, kp)
	vc := &ViewChange{
		NewView:    4,
		StableSeq:  10,
		StableCkpt: CheckpointProof{Seq: 10, StateDigest: cp.StateDigest, Checkpoints: []Checkpoint{*cp}},
		Prepared:   []PreparedProof{{PrePrepare: *pp, Prepares: []Prepare{*prep}}},
		Replica:    kp.ID,
	}
	sign(vc, kp)
	nv := &NewView{View: 4, ViewChanges: []ViewChange{*vc}, PrePrepares: []PrePrepare{*pp}, Replica: kp.ID}
	sign(nv, kp)
	return []signable{pp, prep, cp, vc, nv}
}

// TestSigningBytesMatchesReference guards the sig-is-last-field invariant
// the truncation-based signing path depends on, for every message type, and
// checks that computing signing bytes no longer mutates the message.
func TestSigningBytesMatchesReference(t *testing.T) {
	kp := crypto.MustGenerateKeyPair(2)
	for _, m := range sampleSignables(kp) {
		name := fmt.Sprintf("%T", m)
		sigBefore := append([]byte(nil), m.signature()...)
		got := signingBytes(m)
		if !bytes.Equal(got, referenceSigningBytes(m)) {
			t.Errorf("%s: signingBytes diverges from reference implementation", name)
		}
		if !bytes.Equal(m.signature(), sigBefore) {
			t.Errorf("%s: signingBytes mutated the signature", name)
		}
		if err := verify(m, crypto.NewRegistry(kp)); err != nil {
			t.Errorf("%s: verify after signingBytes: %v", name, err)
		}
	}
}

// TestSignedBroadcastMatchesMarshal checks the cached broadcast encoding is
// exactly what wire.Marshal would produce for the signed message.
func TestSignedBroadcastMatchesMarshal(t *testing.T) {
	kp := crypto.MustGenerateKeyPair(1)
	req := Request{Payload: []byte("cargo"), Origin: kp.ID}
	SignRequest(&req, kp)
	pp := &PrePrepare{View: 1, Seq: 2, Req: req, Replica: kp.ID}
	act := signedBroadcast(pp, kp)
	if !bytes.Equal(act.Encoded, wire.Marshal(pp)) {
		t.Fatal("cached encoding differs from wire.Marshal of the signed message")
	}
	if err := verify(pp, crypto.NewRegistry(kp)); err != nil {
		t.Fatalf("signedBroadcast produced an unverifiable message: %v", err)
	}
	msg, err := wire.Unmarshal(act.Encoded)
	if err != nil {
		t.Fatalf("unmarshal cached encoding: %v", err)
	}
	if got := msg.(*PrePrepare); got.Seq != 2 || string(got.Req.Payload) != "cargo" {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

// TestSigningSafeFromPoolWorkers drives sign and verify from many
// goroutines — including repeated verification of the *same* message, as
// VerifyPool workers do when a broadcast is received and re-validated in a
// view-change proof — and relies on -race to catch any mutation.
func TestSigningSafeFromPoolWorkers(t *testing.T) {
	kp := crypto.MustGenerateKeyPair(0)
	reg := crypto.NewRegistry(kp)
	shared := &Prepare{View: 1, Seq: 1, Digest: crypto.Hash([]byte("x")), Replica: 0}
	sign(shared, kp)

	pool := crypto.NewVerifyPool(4)
	defer pool.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 400)
	for i := 0; i < 200; i++ {
		wg.Add(2)
		seq := uint64(i)
		pool.Submit(func(crypto.NodeID, any) {
			defer wg.Done()
			// Concurrent verification of one shared message.
			if err := verify(shared, reg); err != nil {
				errs <- err
			}
		}, 0, nil)
		pool.Submit(func(crypto.NodeID, any) {
			defer wg.Done()
			// Concurrent signing of distinct messages.
			own := &Checkpoint{Seq: seq, StateDigest: crypto.Hash([]byte("y")), Replica: 0}
			sign(own, kp)
			if err := verify(own, reg); err != nil {
				errs <- err
			}
		}, 0, nil)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// newPooledRunnerCluster is newRunnerCluster with a shared VerifyPool, the
// production configuration of internal/node.
func newPooledRunnerCluster(t *testing.T, n int, viewTimeout time.Duration) (*runnerCluster, *crypto.VerifyPool) {
	t.Helper()
	pool := crypto.NewVerifyPool(4)
	t.Cleanup(pool.Close)
	rc := &runnerCluster{
		net:     transport.NewNetwork(),
		runners: make(map[crypto.NodeID]*Runner),
		apps:    make(map[crypto.NodeID]*testApp),
		kps:     make(map[crypto.NodeID]*crypto.KeyPair),
	}
	var pairs []*crypto.KeyPair
	for i := 0; i < n; i++ {
		id := crypto.NodeID(i)
		rc.ids = append(rc.ids, id)
		kp := crypto.MustGenerateKeyPair(id)
		rc.kps[id] = kp
		pairs = append(pairs, kp)
	}
	reg := crypto.NewRegistry(pairs...)
	for _, id := range rc.ids {
		engine, err := NewEngine(Config{ID: id, Replicas: rc.ids}, rc.kps[id], reg)
		if err != nil {
			t.Fatal(err)
		}
		app := newTestApp()
		// The shared pool completes tasks in any order: a replica can
		// hold the quorum's Checkpoints for a slot while the votes it
		// needs for the slots before it still wait in the pool. It then
		// adopts the stable checkpoint and skips those slots by state
		// transfer, as PBFT prescribes, so the app installs them like a
		// node does.
		app.transfer = func(after, through uint64) []DeliverAction {
			return rc.deliveredBetween(id, after, through)
		}
		runner := NewRunner(engine, rc.net.Endpoint(id), clock.Real{}, app,
			RunnerConfig{BaseViewTimeout: viewTimeout, VerifyPool: pool})
		rc.apps[id] = app
		rc.runners[id] = runner
	}
	for _, id := range rc.ids {
		rc.runners[id].Start()
	}
	t.Cleanup(func() {
		for _, r := range rc.runners {
			r.Stop()
		}
		rc.net.Close()
	})
	return rc, pool
}

// TestRunnerClusterWithVerifyPool runs 4 runners over the in-proc transport
// with off-loop verification and concurrent proposers; run under -race this
// is the pipeline's concurrency test.
func TestRunnerClusterWithVerifyPool(t *testing.T) {
	rc, pool := newPooledRunnerCluster(t, 4, time.Second)
	const n = 30
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/3; i++ {
				rc.propose(0, fmt.Sprintf("req-%d-%02d", g, i))
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool)
	for _, id := range rc.ids {
		got := rc.apps[id].waitDeliveries(t, n)
		if id == 0 {
			for _, d := range got {
				seen[string(d.Req.Payload)] = true
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("delivered %d distinct requests, want %d", len(seen), n)
	}
	for _, id := range rc.ids {
		rc.apps[id].mu.Lock()
		if tr := rc.apps[id].transfers; len(tr) > 0 {
			t.Logf("replica %v caught up by state transfer to %d", id, tr[len(tr)-1].TargetSeq)
		}
		rc.apps[id].mu.Unlock()
	}
	if st := pool.Counters(); st.Offloaded.Load()+st.Inline.Load() == 0 {
		t.Error("verify pool was never used")
	}
}

// TestByzantineMessagesDroppedOffLoop confirms forged and tampered messages
// are still rejected when verification happens on the pool — or, for a
// Commit's MAC, on the delivery goroutine — and that the cluster keeps
// ordering correctly around them.
func TestByzantineMessagesDroppedOffLoop(t *testing.T) {
	rc, _ := newPooledRunnerCluster(t, 4, 5*time.Second)
	byz := rc.net.Endpoint(9) // not a replica; its sends carry from=9

	// 1. Replay across channels: a prepare legitimately signed by replica 2
	// but sent from node 9. Dropped by the cheap sender==signer check before
	// the message ever reaches a pool worker.
	replay := &Prepare{View: 0, Seq: 1, Digest: crypto.Hash([]byte("a")), Replica: 2}
	sign(replay, rc.kps[2])
	_ = byz.Broadcast(wire.Marshal(replay))

	// 2. Forged signature on the right channel: Replica matches the sending
	// endpoint, so this one survives the cheap check and must be rejected by
	// preVerify on a pool worker.
	badSig := &Prepare{View: 0, Seq: 1, Digest: crypto.Hash([]byte("b")), Replica: 2,
		Sig: bytes.Repeat([]byte{0xab}, crypto.SignatureSize)}
	_ = rc.net.Endpoint(2).Broadcast(wire.Marshal(badSig))

	// 3. Forged preprepare from the primary's channel carrying a bogus
	// request signature; off-loop VerifyRequest must reject it.
	forged := &PrePrepare{
		View: 0, Seq: 1,
		Req:     Request{Payload: []byte("evil"), Origin: 0, Sig: make([]byte, crypto.SignatureSize)},
		Replica: 0,
		Sig:     bytes.Repeat([]byte{0xab}, crypto.SignatureSize),
	}
	_ = rc.net.Endpoint(0).Broadcast(wire.Marshal(forged))

	// 4. Garbage bytes that do not even decode.
	_ = byz.Broadcast([]byte{0x10, 0xff, 0x01})

	// 5. Commits replica 1 must drop, at a slot nothing else uses. A
	// genuine Commit from 3 follows them down the same FIFO inbox and
	// mailbox; once the engine holds it, it has seen the bad ones too.
	good := tagCommit(t, rc.kps, 2, 1, Commit{View: 0, Seq: 5, Digest: crypto.Hash([]byte("c")), Replica: 2})
	for _, b := range badCommits(t, rc.kps, good) {
		_ = rc.net.Endpoint(b.from).Send(1, wire.Marshal(b.c))
	}
	marker := tagCommit(t, rc.kps, 3, 1, Commit{View: 0, Seq: 5, Digest: good.Digest, Replica: 3})
	_ = rc.net.Endpoint(3).Send(1, wire.Marshal(marker))
	deadline := time.Now().Add(5 * time.Second)
	for {
		var seen, leaked bool
		rc.runners[1].Inspect(func(e *Engine) {
			inst := e.log[5]
			seen = inst != nil && inst.commits[3] != nil
			leaked = (inst != nil && inst.commits[2] != nil) || e.log[6] != nil || len(e.early) != 0
		})
		if leaked {
			t.Fatal("replica 1 kept a Commit whose MAC does not check")
		}
		if seen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica 1 never recorded the genuine Commit")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Legitimate traffic must still order, and the forged payload must not.
	rc.propose(0, "honest")
	for _, id := range rc.ids {
		got := rc.apps[id].waitDeliveries(t, 1)
		if string(got[0].Req.Payload) != "honest" {
			t.Fatalf("replica %v delivered %q", id, got[0].Req.Payload)
		}
	}
	for _, id := range rc.ids {
		rc.apps[id].mu.Lock()
		for _, d := range rc.apps[id].delivered {
			if string(d.Req.Payload) == "evil" {
				t.Errorf("replica %v delivered forged request", id)
			}
		}
		rc.apps[id].mu.Unlock()
	}
}

// BenchmarkSigningBytes measures the pooled, non-mutating signing-bytes
// path; the acceptance bar is zero allocations per operation.
func BenchmarkSigningBytes(b *testing.B) {
	kp := crypto.MustGenerateKeyPair(0)
	p := &Prepare{View: 1, Seq: 42, Digest: crypto.Hash([]byte("bench")), Replica: 0}
	sign(p, kp)
	e := wire.NewEncoder(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signingBytesInto(e, p)
	}
}

// inbound is one encoded message as the transport hands it to a handler.
type inbound struct {
	from crypto.NodeID
	data []byte
}

// newIngestRunner returns replica 0's runner, not started, verifying on
// pool (nil: on the delivery goroutine), and 64 encoded Prepares signed in
// turn by the three backups at a sequence number far above the watermarks,
// so the engine keeps none of them.
func newIngestRunner(tb testing.TB, pool *crypto.VerifyPool) (*Runner, []inbound) {
	tb.Helper()
	ids := []crypto.NodeID{0, 1, 2, 3}
	kps := make(map[crypto.NodeID]*crypto.KeyPair)
	var pairs []*crypto.KeyPair
	for _, id := range ids {
		kps[id] = crypto.MustGenerateKeyPair(id)
		pairs = append(pairs, kps[id])
	}
	engine, err := NewEngine(Config{ID: 0, Replicas: ids}, kps[0], crypto.NewRegistry(pairs...))
	if err != nil {
		tb.Fatal(err)
	}
	net := transport.NewNetwork()
	tb.Cleanup(func() { net.Close() })
	r := NewRunner(engine, net.Endpoint(0), clock.Real{}, newTestApp(),
		RunnerConfig{BaseViewTimeout: time.Hour, VerifyPool: pool})
	var frames []inbound
	for i := 0; i < 64; i++ {
		from := ids[1+i%3]
		p := &Prepare{View: 0, Seq: 1 << 40, Digest: crypto.Hash([]byte{byte(i)}), Replica: from}
		sign(p, kps[from])
		frames = append(frames, inbound{from, wire.Marshal(p)})
	}
	return r, frames
}

// TestReceivePrepareAllocations guards the receive path from the transport
// handler to the mailbox: a Prepare costs only its decoded message and
// signature copy — no decoder, no closure, no mailbox growth.
func TestReceivePrepareAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	r, frames := newIngestRunner(t, nil)
	i := 0
	receive := func() {
		f := frames[i%len(frames)]
		i++
		r.onMessage(f.from, f.data)
		r.mu.Lock()
		if len(r.queue) != 1 {
			t.Fatalf("mailbox holds %d entries, want the one Prepare", len(r.queue))
		}
		r.queue = r.queue[:0] // nothing drains it: the runner is not started
		r.mu.Unlock()
	}
	receive()
	if n := testing.AllocsPerRun(100, receive); n > 2 {
		t.Errorf("receiving a Prepare allocates %v times, want at most 2 (the message and its signature)", n)
	}
}

// BenchmarkReceivePrepare measures a Prepare frame from the transport
// handler down to the mailbox — decode, sender and signature checks,
// enqueue — with no pool and nothing draining the mailbox (run with
// -benchmem).
func BenchmarkReceivePrepare(b *testing.B) {
	r, frames := newIngestRunner(b, nil)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		f := frames[i%len(frames)]
		i++
		r.onMessage(f.from, f.data)
		if i%len(frames) == 0 {
			r.mu.Lock()
			r.queue = r.queue[:0]
			r.mu.Unlock()
		}
	}
}

// benchmarkRunnerIngest measures the transport-to-engine ingest path:
// decode + signature verification + mailbox enqueue, with the event loop
// running, using prepares whose sequence numbers fall outside the
// watermarks so engine state stays flat.
func benchmarkRunnerIngest(b *testing.B, workers int) {
	var pool *crypto.VerifyPool
	if workers != 0 {
		pool = crypto.NewVerifyPool(workers)
		defer pool.Close()
	}
	r, frames := newIngestRunner(b, pool)
	r.Start()
	defer r.Stop()

	base := uint64(0)
	if pool != nil {
		st := pool.Counters()
		base = st.Offloaded.Load() + st.Inline.Load()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		r.onMessage(f.from, f.data)
	}
	if pool != nil {
		// Wait for the pipeline to drain so ns/op covers the full work.
		for {
			st := pool.Counters()
			if st.Offloaded.Load()+st.Inline.Load()-base >= uint64(b.N) {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// BenchmarkRunnerIngestSerial verifies on the delivery goroutine (no pool).
func BenchmarkRunnerIngestSerial(b *testing.B) { benchmarkRunnerIngest(b, 0) }

// BenchmarkRunnerIngestPipelined verifies on a GOMAXPROCS-sized pool.
func BenchmarkRunnerIngestPipelined(b *testing.B) { benchmarkRunnerIngest(b, -1) }
