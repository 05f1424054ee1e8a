package pbft

import (
	"fmt"
	"math/rand"
	"testing"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

func TestNewEngineValidation(t *testing.T) {
	kp := crypto.MustGenerateKeyPair(0)
	reg := crypto.NewRegistry(kp)
	tests := []struct {
		name string
		cfg  Config
		kp   *crypto.KeyPair
	}{
		{"too few replicas", Config{ID: 0, Replicas: []crypto.NodeID{0, 1, 2}}, kp},
		{"id not in set", Config{ID: 9, Replicas: []crypto.NodeID{0, 1, 2, 3}}, kp},
		{"wrong key", Config{ID: 1, Replicas: []crypto.NodeID{0, 1, 2, 3}}, kp},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewEngine(tt.cfg, tt.kp, reg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestStartAnnouncesInitialPrimary(t *testing.T) {
	c := newCluster(t, 4, nil)
	for _, id := range c.ids {
		nps := c.newPrimaries[id]
		if len(nps) != 1 || nps[0].View != 0 || nps[0].Primary != 0 {
			t.Errorf("replica %v initial primary = %+v", id, nps)
		}
	}
}

func TestNormalCaseSingleRequest(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.propose(0, "speed=100")
	c.run()
	c.assertAllDelivered("speed=100")
	c.assertAgreement()
	for _, id := range c.ids {
		if got := c.delivered[id][0].Seq; got != 1 {
			t.Errorf("replica %v seq = %d, want 1", id, got)
		}
		if got := c.delivered[id][0].Req.Origin; got != 0 {
			t.Errorf("replica %v origin = %v, want r0", id, got)
		}
	}
}

func TestNormalCaseManyRequestsInOrder(t *testing.T) {
	c := newCluster(t, 4, nil)
	var want []string
	for i := 0; i < 9; i++ { // below checkpoint interval
		p := fmt.Sprintf("cycle-%02d", i)
		want = append(want, p)
		c.propose(0, p)
	}
	c.run()
	c.assertAllDelivered(want...)
	c.assertAgreement()
}

func TestProposeOnBackupIsNoop(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.propose(1, "from-backup")
	c.run()
	for _, id := range c.ids {
		if len(c.delivered[id]) != 0 {
			t.Errorf("replica %v delivered %d requests", id, len(c.delivered[id]))
		}
	}
}

func TestCheckpointBecomesStable(t *testing.T) {
	c := newCluster(t, 4, nil)
	for i := 0; i < int(DefaultCheckpointInterval); i++ {
		c.propose(0, fmt.Sprintf("r%d", i))
	}
	c.run()
	for _, id := range c.ids {
		proofs := c.stable[id]
		if len(proofs) != 1 {
			t.Fatalf("replica %v stable checkpoints = %d, want 1", id, len(proofs))
		}
		p := proofs[0]
		if p.Seq != DefaultCheckpointInterval {
			t.Errorf("replica %v stable seq = %d", id, p.Seq)
		}
		if err := p.Verify(c.reg, 3); err != nil {
			t.Errorf("replica %v stable proof invalid: %v", id, err)
		}
		if len(p.Checkpoints) < 3 {
			t.Errorf("replica %v proof has %d signatures", id, len(p.Checkpoints))
		}
	}
}

func TestWatermarkBackpressureAndDrain(t *testing.T) {
	c := newCluster(t, 4, nil)
	// Window = 2 * interval = 20. Propose 30 without running the queue
	// in between: the last 10 must wait for a stable checkpoint.
	var want []string
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("r%02d", i)
		want = append(want, p)
		c.propose(0, p)
	}
	c.run() // ordering + checkpoints free space and drain the queue
	c.assertAllDelivered(want...)
	c.assertAgreement()
	for _, id := range c.ids {
		if got := len(c.stable[id]); got != 3 {
			t.Errorf("replica %v stable checkpoints = %d, want 3", id, got)
		}
	}
}

func TestLogGarbageCollectedAfterStable(t *testing.T) {
	c := newCluster(t, 4, nil)
	for i := 0; i < 10; i++ {
		c.propose(0, fmt.Sprintf("r%d", i))
	}
	c.run()
	for _, id := range c.ids {
		e := c.engines[id]
		if len(e.log) != 0 {
			t.Errorf("replica %v retains %d log instances after stable checkpoint", id, len(e.log))
		}
		if e.lowWater != 10 {
			t.Errorf("replica %v lowWater = %d", id, e.lowWater)
		}
	}
}

func TestViewChangeElectsNextPrimary(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.suspect(1, 2, 3)
	c.run()
	for _, id := range c.ids {
		e := c.engines[id]
		if e.View() != 1 {
			t.Errorf("replica %v view = %d, want 1", id, e.View())
		}
		if e.Primary() != 1 {
			t.Errorf("replica %v primary = %v, want r1", id, e.Primary())
		}
		nps := c.newPrimaries[id]
		last := nps[len(nps)-1]
		if last.View != 1 || last.Primary != 1 {
			t.Errorf("replica %v last NewPrimary = %+v", id, last)
		}
	}
}

func TestViewChangeByFPlusOneJoin(t *testing.T) {
	c := newCluster(t, 4, nil)
	// Only f+1 = 2 replicas suspect; the rest must join via the f+1 rule
	// and the view change must complete.
	c.suspect(1, 2)
	c.run()
	for _, id := range c.ids {
		if got := c.engines[id].View(); got != 1 {
			t.Errorf("replica %v view = %d, want 1", id, got)
		}
	}
}

func TestSingleSuspectDoesNotChangeView(t *testing.T) {
	c := newCluster(t, 4, nil)
	// One faulty replica suspecting alone (fault (v) of §III-C) must not
	// move the view: f+1 are required.
	c.suspect(3)
	c.run()
	for _, id := range c.ids {
		if got := c.engines[id].View(); got != 0 {
			t.Errorf("replica %v view = %d, want 0", id, got)
		}
	}
}

func TestSuspectNonPrimaryIsNoop(t *testing.T) {
	c := newCluster(t, 4, nil)
	for _, id := range c.ids {
		c.handle(id, c.engines[id].Suspect(2)) // r2 is not the primary
	}
	c.run()
	for _, id := range c.ids {
		if got := c.engines[id].View(); got != 0 {
			t.Errorf("replica %v view = %d, want 0", id, got)
		}
	}
}

func TestPreparedRequestSurvivesViewChange(t *testing.T) {
	c := newCluster(t, 4, nil)
	// Let the request reach prepared everywhere but block all commits, so
	// no replica executes before the view change.
	c.filter = func(p packet) bool {
		msg, err := unmarshalPacket(p)
		if err != nil {
			return true
		}
		_, isCommit := msg.(*Commit)
		return !isCommit
	}
	req := c.propose(0, "must-survive")
	c.run()

	for _, id := range c.ids {
		if len(c.delivered[id]) != 0 {
			t.Fatalf("replica %v delivered before view change", id)
		}
	}

	c.filter = nil
	c.suspect(1, 2, 3)
	c.run()

	c.assertAllDelivered("must-survive")
	c.assertAgreement()
	for _, id := range c.ids {
		d := c.delivered[id][0]
		if d.Seq != 1 || d.Req.Digest() != req.Digest() {
			t.Errorf("replica %v delivered seq %d digest %s", id, d.Seq, d.Req.Digest().Short())
		}
	}
}

func TestNewPrimaryContinuesOrdering(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.propose(0, "before")
	c.run()
	c.suspect(1, 2, 3)
	c.run()
	c.propose(1, "after") // r1 is the new primary
	c.run()
	c.assertAllDelivered("before", "after")
	c.assertAgreement()
}

func TestViewChangeTimerEscalation(t *testing.T) {
	c := newCluster(t, 4, nil)
	// The new primary r1 is also dead: drop everything it sends. The view
	// change to view 1 cannot complete; firing the progress timers must
	// escalate to view 2 (primary r2).
	c.filter = func(p packet) bool { return p.from != 1 }
	c.suspect(0, 2, 3)
	c.run()
	for _, id := range []crypto.NodeID{0, 2, 3} {
		if c.engines[id].View() == 1 {
			t.Fatalf("replica %v entered view 1 despite dead primary", id)
		}
	}
	c.fireViewTimer(0)
	c.fireViewTimer(2)
	c.fireViewTimer(3)
	c.run()
	for _, id := range []crypto.NodeID{0, 2, 3} {
		e := c.engines[id]
		if e.View() != 2 || e.Primary() != 2 {
			t.Errorf("replica %v view=%d primary=%v, want view 2 primary r2", id, e.View(), e.Primary())
		}
	}
	// Ordering must work in view 2 with only 3 live replicas (f=1).
	c.propose(2, "in-view-2")
	c.run()
	for _, id := range []crypto.NodeID{0, 2, 3} {
		if len(c.delivered[id]) != 1 || string(c.delivered[id][0].Req.Payload) != "in-view-2" {
			t.Errorf("replica %v deliveries = %+v", id, c.delivered[id])
		}
	}
	c.assertAgreement()
}

func TestEquivocatingPrimaryCannotSplitCluster(t *testing.T) {
	c := newCluster(t, 4, nil)
	// A Byzantine primary sends conflicting preprepares for seq 1: "A" to
	// r1, "B" to r2 and r3. No matter the schedule, at most one of them
	// may ever be delivered (n=4 cannot commit both).
	reqA := Request{Payload: []byte("A")}
	SignRequest(&reqA, c.kps[0])
	reqB := Request{Payload: []byte("B")}
	SignRequest(&reqB, c.kps[0])

	mk := func(req Request) *PrePrepare {
		pp := &PrePrepare{View: 0, Seq: 1, Req: req, Replica: 0}
		sign(pp, c.kps[0])
		return pp
	}
	c.handle(1, c.engines[1].Receive(0, mk(reqA)))
	c.handle(2, c.engines[2].Receive(0, mk(reqB)))
	c.handle(3, c.engines[3].Receive(0, mk(reqB)))
	c.run()
	c.assertAgreement()

	// "A" can never be committed: at most 1 backup prepared it.
	for _, id := range c.ids {
		for _, d := range c.delivered[id] {
			if string(d.Req.Payload) == "A" {
				t.Errorf("replica %v delivered the minority branch", id)
			}
		}
	}
}

func TestReceiveRejectsForgedSender(t *testing.T) {
	c := newCluster(t, 4, nil)
	req := Request{Payload: []byte("x")}
	SignRequest(&req, c.kps[0])
	pp := &PrePrepare{View: 0, Seq: 1, Req: req, Replica: 0}
	sign(pp, c.kps[0])
	// Replayed by r3 claiming its own channel: signer (r0) != from (r3).
	c.handle(1, c.engines[1].Receive(3, pp))
	c.run()
	if len(c.delivered[1]) != 0 {
		t.Error("forged-sender message was processed")
	}
	// Legit delivery from r0 still works.
	c.handle(1, c.engines[1].Receive(0, pp))
	c.run()
	c.assertAgreement()
}

func TestReceiveRejectsBadSignature(t *testing.T) {
	c := newCluster(t, 4, nil)
	req := Request{Payload: []byte("x")}
	SignRequest(&req, c.kps[0])
	pp := &PrePrepare{View: 0, Seq: 1, Req: req, Replica: 0}
	sign(pp, c.kps[0])
	pp.Seq = 2 // invalidates the signature
	c.handle(1, c.engines[1].Receive(0, pp))
	c.run()
	inst, ok := c.engines[1].log[2]
	if ok && inst.preprepare != nil {
		t.Error("tampered preprepare accepted")
	}
}

func TestReceiveRejectsBadRequestSignature(t *testing.T) {
	c := newCluster(t, 4, nil)
	req := Request{Payload: []byte("x"), Origin: 0, Sig: make([]byte, crypto.SignatureSize)}
	pp := &PrePrepare{View: 0, Seq: 1, Req: req, Replica: 0}
	sign(pp, c.kps[0]) // valid outer signature, invalid inner request sig
	c.handle(1, c.engines[1].Receive(0, pp))
	c.run()
	if len(c.delivered[1]) != 0 {
		t.Error("request with invalid origin signature processed")
	}
}

func TestPrePrepareFromNonPrimaryRejected(t *testing.T) {
	c := newCluster(t, 4, nil)
	req := Request{Payload: []byte("x")}
	SignRequest(&req, c.kps[2])
	pp := &PrePrepare{View: 0, Seq: 1, Req: req, Replica: 2}
	sign(pp, c.kps[2])
	c.handle(1, c.engines[1].Receive(2, pp))
	c.run()
	for _, id := range c.ids {
		if len(c.delivered[id]) != 0 {
			t.Error("backup's preprepare was ordered")
		}
	}
}

func TestOutOfWatermarkPrePrepareRejected(t *testing.T) {
	c := newCluster(t, 4, nil)
	req := Request{Payload: []byte("x")}
	SignRequest(&req, c.kps[0])
	pp := &PrePrepare{View: 0, Seq: 999, Req: req, Replica: 0}
	sign(pp, c.kps[0])
	c.handle(1, c.engines[1].Receive(0, pp))
	c.run()
	if _, ok := c.engines[1].log[999]; ok {
		t.Error("out-of-watermark preprepare accepted")
	}
}

// TestMessagesAboveHighWatermarkAreHeld replays the reordering that wedged
// ordering at batch size 1: the primary stabilises checkpoint k = 20 and
// fills (20, 40], while a backup whose low watermark is still 10 receives
// the top half of that window first. The backup must hold those messages
// rather than drop them, since nothing re-sends them, and order every slot
// itself once checkpoint 20 becomes stable — without a state transfer.
func TestMessagesAboveHighWatermarkAreHeld(t *testing.T) {
	c := newCluster(t, 4, nil)
	var want []string
	propose := func(from, to int) {
		for i := from; i <= to; i++ {
			want = append(want, fmt.Sprintf("r%02d", i))
			c.propose(0, want[len(want)-1])
		}
		c.run()
	}
	var late []packet
	divertTo3 := func(divert func(msg any) bool) {
		c.filter = func(p packet) bool {
			if p.to != 3 {
				return true
			}
			if msg, err := unmarshalPacket(p); err == nil && divert(msg) {
				late = append(late, p)
				return false
			}
			return true
		}
	}

	propose(1, 10)
	divertTo3(func(msg any) bool { _, ok := msg.(*Checkpoint); return ok })
	propose(11, 20)
	if lw0, lw3 := c.engines[0].lowWater, c.engines[3].lowWater; lw0 != 20 || lw3 != 10 {
		t.Fatalf("low watermarks r0=%d r3=%d, want 20 and 10", lw0, lw3)
	}
	divertTo3(func(any) bool { return true })
	propose(21, 40)

	// Deliver to r3 the top half (31..40, above its high watermark 30)
	// first, then the bottom half, then the checkpoints it missed.
	var top, bottom, ckpts []packet
	for _, p := range late {
		msg, _ := unmarshalPacket(p)
		var seq uint64
		switch m := msg.(type) {
		case *PrePrepare:
			seq = m.Seq
		case *Prepare:
			seq = m.Seq
		case *Commit:
			seq = m.Seq
		}
		switch {
		case seq > 30:
			top = append(top, p)
		case seq > 0:
			bottom = append(bottom, p)
		default:
			ckpts = append(ckpts, p)
		}
	}
	if len(top) == 0 || len(bottom) == 0 || len(ckpts) == 0 {
		t.Fatalf("diverted %d/%d/%d top/bottom/checkpoint packets", len(top), len(bottom), len(ckpts))
	}
	c.filter = nil
	c.queue = append(append(append(c.queue, top...), bottom...), ckpts...)
	c.run()

	c.assertAllDelivered(want...)
	c.assertAgreement()
	if n := len(c.transfers[3]); n != 0 {
		t.Errorf("r3 needed %d state transfers, want 0", n)
	}
	if n := len(c.engines[3].early); n != 0 {
		t.Errorf("r3 still holds %d early messages", n)
	}
}

// TestPendingProposalsDoNotOutliveTheView: a primary whose watermark window
// is full queues proposals, then loses the view. The next primary orders
// those requests (the layer above re-proposes whatever is still open on
// NEWPRIMARY). When the first primary leads again, four views later, it
// must not propose its stale queue: each request would be ordered a second
// time, and once the first copy has left the layer's dedup window it would
// be logged twice.
func TestPendingProposalsDoNotOutliveTheView(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.filter = func(p packet) bool { return p.from != 0 } // r0's proposals reach no one
	var payloads []string
	for i := 0; i < 25; i++ {
		payloads = append(payloads, fmt.Sprintf("r%02d", i))
		c.propose(0, payloads[i])
	}
	c.run()
	if n := len(c.engines[0].pendingProposals); n != 5 {
		t.Fatalf("r0 queued %d proposals, want 5", n)
	}
	c.suspect(1, 2, 3)
	c.run()
	c.filter = nil
	if v := c.engines[0].View(); v != 1 {
		t.Fatalf("r0 in view %d, want 1", v)
	}
	for _, p := range payloads {
		c.propose(1, p)
	}
	c.run()
	for view := uint64(2); view <= 4; view++ {
		c.suspect(c.ids...)
		c.run()
		if v := c.engines[0].View(); v != view {
			t.Fatalf("r0 in view %d, want %d", v, view)
		}
	}
	if !c.engines[0].IsPrimary() {
		t.Fatal("r0 does not lead view 4")
	}
	c.assertAllDelivered(payloads...)
	c.assertAgreement()
}

func TestLaggingReplicaStateTransfer(t *testing.T) {
	c := newCluster(t, 4, nil)
	// r3 misses all ordering traffic for a full checkpoint interval.
	c.filter = func(p packet) bool {
		if p.to != 3 {
			return true
		}
		msg, err := unmarshalPacket(p)
		if err != nil {
			return true
		}
		switch msg.(type) {
		case *PrePrepare, *Prepare, *Commit:
			return false
		}
		return true
	}
	for i := 0; i < 10; i++ {
		c.propose(0, fmt.Sprintf("r%d", i))
	}
	c.run()

	// r3 received only checkpoint messages; with 2f+1 = 3 from the others
	// the checkpoint still becomes stable on r3, which must then ask for
	// a state transfer.
	if len(c.transfers[3]) == 0 {
		t.Fatal("lagging replica did not request state transfer")
	}
	tr := c.transfers[3][0]
	if tr.TargetSeq != 10 {
		t.Errorf("state transfer target = %d, want 10", tr.TargetSeq)
	}
	if c.engines[3].Executed() != 10 {
		t.Errorf("executed = %d after adopting stable checkpoint", c.engines[3].Executed())
	}
	// And ordering continues including r3.
	c.filter = nil
	c.propose(0, "next")
	c.run()
	if len(c.delivered[3]) == 0 || string(c.delivered[3][len(c.delivered[3])-1].Req.Payload) != "next" {
		t.Error("recovered replica did not resume ordering")
	}
	c.assertAgreement()
}

func TestDivergentStateDetected(t *testing.T) {
	c := newCluster(t, 4, nil)
	// r2 computes a wrong block digest (bit rot / arbitrary fault).
	c.digestFn[2] = func(seq uint64) crypto.Digest { return crypto.Hash([]byte("corrupt")) }
	for i := 0; i < 10; i++ {
		c.propose(0, fmt.Sprintf("r%d", i))
	}
	c.run()
	if len(c.transfers[2]) == 0 {
		t.Fatal("divergent replica did not detect its corruption")
	}
	// The other replicas still reached a stable checkpoint.
	for _, id := range []crypto.NodeID{0, 1, 3} {
		if len(c.stable[id]) != 1 {
			t.Errorf("replica %v stable checkpoints = %d", id, len(c.stable[id]))
		}
	}
}

func TestRandomScheduleSafetyProperty(t *testing.T) {
	// Under arbitrary message loss and reordering, delivered requests must
	// agree per sequence number across replicas. 20 randomized schedules.
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := newCluster(t, 4, nil)
			c.filter = func(p packet) bool { return rng.Float64() > 0.2 } // 20% loss
			for i := 0; i < 25; i++ {
				c.propose(0, fmt.Sprintf("req-%02d", i))
				// Shuffle pending packets to model reordering.
				rng.Shuffle(len(c.queue), func(a, b int) {
					c.queue[a], c.queue[b] = c.queue[b], c.queue[a]
				})
				c.run()
			}
			c.assertAgreement()
		})
	}
}

func unmarshalPacket(p packet) (any, error) {
	return wire.Unmarshal(p.data)
}

// TestSevenReplicaCluster exercises the quorum arithmetic at n=7, f=2:
// ordering succeeds with two replicas silenced, and a view change needs
// f+1=3 suspects.
func TestSevenReplicaCluster(t *testing.T) {
	c := newCluster(t, 7, nil)
	if got := c.engines[0].cfg.F(); got != 2 {
		t.Fatalf("F() = %d, want 2", got)
	}
	if got := c.engines[0].cfg.Quorum(); got != 5 {
		t.Fatalf("Quorum() = %d, want 5", got)
	}

	// Silence f=2 replicas entirely.
	c.filter = func(p packet) bool { return p.to != 5 && p.to != 6 && p.from != 5 && p.from != 6 }
	for i := 0; i < 12; i++ {
		c.propose(0, fmt.Sprintf("r%02d", i))
	}
	c.run()
	for _, id := range c.ids[:5] {
		if got := len(c.delivered[id]); got != 12 {
			t.Errorf("replica %v delivered %d of 12", id, got)
		}
	}
	c.assertAgreement()

	// Checkpoints stabilize with 2f+1 = 5 signatures.
	if got := len(c.stable[0]); got != 1 {
		t.Fatalf("stable checkpoints = %d", got)
	}
	if err := c.stable[0][0].Verify(c.reg, 5); err != nil {
		t.Errorf("proof: %v", err)
	}

	// f=2 suspects are not enough for a view change; f+1=3 are.
	c.suspect(1, 2)
	c.run()
	if got := c.engines[1].View(); got != 0 {
		t.Fatalf("view changed with only f suspects (view %d)", got)
	}
	c.suspect(3)
	c.run()
	for _, id := range c.ids[:5] {
		if got := c.engines[id].View(); got != 1 {
			t.Errorf("replica %v view = %d, want 1", id, got)
		}
	}
	c.assertAgreement()
}

// TestRandomScheduleSafetySevenNodes repeats the randomized-safety property
// at n=7 with up to 30% message loss.
func TestRandomScheduleSafetySevenNodes(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := newCluster(t, 7, nil)
			c.filter = func(p packet) bool { return rng.Float64() > 0.3 }
			for i := 0; i < 15; i++ {
				c.propose(0, fmt.Sprintf("req-%02d", i))
				rng.Shuffle(len(c.queue), func(a, b int) {
					c.queue[a], c.queue[b] = c.queue[b], c.queue[a]
				})
				c.run()
			}
			c.assertAgreement()
		})
	}
}
