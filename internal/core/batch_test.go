package core

import (
	"fmt"
	"testing"
	"time"

	"zugchain/internal/crypto"
	"zugchain/internal/pbft"
	"zugchain/internal/wire"
)

func TestBatchFlushesWhenFull(t *testing.T) {
	fx := newFixture(t, 0, func(c *Config) { c.MaxBatch = 3 }) // r0 is primary
	fx.layer.OnBusRecord(0, []byte("a"))
	fx.layer.OnBusRecord(0, []byte("b"))
	if got := len(fx.bft.proposals()); got != 0 {
		t.Fatalf("proposals before the batch filled = %d", got)
	}
	fx.layer.OnBusRecord(0, []byte("c"))

	props := fx.bft.proposals()
	if len(props) != 1 {
		t.Fatalf("proposals = %d, want 1 batched", len(props))
	}
	if !props[0].Batch {
		t.Fatal("proposal not marked as a batch")
	}
	if err := pbft.VerifyRequestDeep(&props[0], fx.reg); err != nil {
		t.Fatalf("batched proposal fails verification: %v", err)
	}
	items, err := pbft.DecodeBatch(props[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("batch carries %d records, want 3", len(items))
	}
	for i, want := range []string{"a", "b", "c"} {
		if string(items[i].Payload) != want || items[i].Origin != 0 {
			t.Errorf("item %d = %+v", i, items[i])
		}
	}

	b := fx.layer.Batches()
	if b.Flushes.Load() != 1 || b.Records.Load() != 3 || b.SizeFlushes.Load() != 1 || b.MaxSize.Load() != 3 {
		t.Errorf("batch counters = %v", b.Metrics())
	}
}

func TestBatchFlushesOnDelay(t *testing.T) {
	fx := newFixture(t, 0, func(c *Config) {
		c.MaxBatch = 8
		c.MaxBatchDelay = 2 * time.Millisecond
	})
	fx.layer.OnBusRecord(0, []byte("a"))
	fx.layer.OnBusRecord(0, []byte("b"))
	if got := len(fx.bft.proposals()); got != 0 {
		t.Fatalf("partial batch proposed early (%d)", got)
	}

	fx.clk.Advance(2 * time.Millisecond)
	waitFor(t, func() bool { return len(fx.bft.proposals()) == 1 })

	props := fx.bft.proposals()
	items, err := pbft.DecodeBatch(props[0].Payload)
	if err != nil || len(items) != 2 {
		t.Fatalf("flush-by-delay batch = %d items, err %v", len(items), err)
	}
	b := fx.layer.Batches()
	if b.DelayFlushes.Load() != 1 || b.SizeFlushes.Load() != 0 {
		t.Errorf("batch counters = %v", b.Metrics())
	}
	if wait := time.Duration(b.WaitMaxNs.Load()); wait != 2*time.Millisecond {
		t.Errorf("oldest-record wait = %v, want 2ms", wait)
	}
}

func TestSingleRecordFlushDegradesToPlainRequest(t *testing.T) {
	fx := newFixture(t, 0, func(c *Config) { c.MaxBatch = 8 })
	fx.layer.OnBusRecord(0, []byte("alone"))
	fx.clk.Advance(2 * time.Millisecond)
	waitFor(t, func() bool { return len(fx.bft.proposals()) == 1 })

	p := fx.bft.proposals()[0]
	if p.Batch {
		t.Error("single-record flush produced a batch envelope")
	}
	if string(p.Payload) != "alone" || p.Origin != 0 {
		t.Errorf("proposal = %+v", p)
	}
	if err := pbft.VerifyRequest(&p, fx.reg); err != nil {
		t.Errorf("proposal not signed: %v", err)
	}
}

// batchOf builds a signed batch proposal from the given (origin, payload)
// pairs, as the primary `by` would propose it.
func (fx *layerFixture) batchOf(by crypto.NodeID, recs ...pbft.Request) pbft.Request {
	for i := range recs {
		if recs[i].Sig == nil {
			pbft.SignRequest(&recs[i], fx.kps[recs[i].Origin])
		}
	}
	req := pbft.Request{Payload: pbft.EncodeBatch(recs), Batch: true}
	pbft.SignRequest(&req, fx.kps[by])
	return req
}

func TestBatchDecideUnpacksPerRecord(t *testing.T) {
	fx := newFixture(t, 1, nil) // backup; primary r0
	batch := fx.batchOf(0,
		pbft.Request{Payload: []byte("one"), Origin: 0},
		pbft.Request{Payload: []byte("two"), Origin: 2},
		pbft.Request{Payload: []byte("three"), Origin: 3},
	)
	fx.layer.OnDecide(7, batch)

	entries := fx.rec.entries()
	if len(entries) != 3 {
		t.Fatalf("logged %d records, want 3", len(entries))
	}
	wantOrigins := []crypto.NodeID{0, 2, 3}
	for i, want := range []string{"one", "two", "three"} {
		if entries[i].payload != want || entries[i].seq != 7 || entries[i].origin != wantOrigins[i] {
			t.Errorf("entry %d = %+v", i, entries[i])
		}
	}
	if len(fx.bft.suspicions()) != 0 {
		t.Errorf("suspicions = %v", fx.bft.suspicions())
	}
}

func TestBatchDecideCancelsOpenTimers(t *testing.T) {
	fx := newFixture(t, 1, nil) // backup
	fx.layer.OnBusRecord(0, []byte("one"))
	fx.layer.OnBusRecord(0, []byte("two"))

	fx.layer.OnDecide(1, fx.batchOf(0,
		pbft.Request{Payload: []byte("one"), Origin: 0},
		pbft.Request{Payload: []byte("two"), Origin: 0},
	))
	if fx.layer.OpenRequests() != 0 {
		t.Fatalf("open = %d after batch decide", fx.layer.OpenRequests())
	}
	fx.clk.Advance(time.Hour)
	time.Sleep(20 * time.Millisecond)
	if fx.tr.numBroadcasts() != 0 || len(fx.bft.suspicions()) != 0 {
		t.Error("timers fired for records decided in a batch")
	}
}

func TestDuplicateInsideBatchSuspectsPrimaryButLogsRest(t *testing.T) {
	fx := newFixture(t, 1, nil)
	fx.layer.OnDecide(3, fx.batchOf(0,
		pbft.Request{Payload: []byte("dup"), Origin: 0},
		pbft.Request{Payload: []byte("honest"), Origin: 2},
		pbft.Request{Payload: []byte("dup"), Origin: 0},
	))

	entries := fx.rec.entries()
	if len(entries) != 2 {
		t.Fatalf("logged %d records, want dup once + honest", len(entries))
	}
	if entries[0].payload != "dup" || entries[1].payload != "honest" {
		t.Errorf("entries = %+v", entries)
	}
	// The primary assembled a batch it should have filtered: suspected.
	if s := fx.bft.suspicions(); len(s) != 1 || s[0] != 0 {
		t.Errorf("suspicions = %v, want the primary r0", s)
	}
}

func TestBatchDuplicateAcrossDecidesSuspectsPrimary(t *testing.T) {
	fx := newFixture(t, 1, nil)
	fx.layer.OnDecide(1, fx.batchOf(0, pbft.Request{Payload: []byte("seen"), Origin: 0}, pbft.Request{Payload: []byte("x"), Origin: 0}))
	fx.layer.OnDecide(2, fx.batchOf(0, pbft.Request{Payload: []byte("y"), Origin: 0}, pbft.Request{Payload: []byte("seen"), Origin: 0}))

	if got := len(fx.rec.entries()); got != 3 {
		t.Errorf("logged %d, want x, y and seen once", got)
	}
	if s := fx.bft.suspicions(); len(s) != 1 || s[0] != 0 {
		t.Errorf("suspicions = %v", s)
	}
}

func TestMalformedBatchDecideSuspectsPrimary(t *testing.T) {
	fx := newFixture(t, 1, nil)
	req := pbft.Request{Payload: []byte{0xde, 0xad}, Batch: true}
	pbft.SignRequest(&req, fx.kps[0])
	fx.layer.OnDecide(1, req)

	if got := len(fx.rec.entries()); got != 0 {
		t.Errorf("logged %d records from a malformed batch", got)
	}
	if s := fx.bft.suspicions(); len(s) != 1 || s[0] != 0 {
		t.Errorf("suspicions = %v, want the primary r0", s)
	}
}

func TestNewPrimaryDropsPendingBatch(t *testing.T) {
	fx := newFixture(t, 0, func(c *Config) { c.MaxBatch = 8 }) // primary
	fx.layer.OnBusRecord(0, []byte("queued-1"))
	fx.layer.OnBusRecord(0, []byte("queued-2"))

	fx.layer.OnNewPrimary(1, 1) // demoted before the batch flushed

	if got := len(fx.bft.proposals()); got != 0 {
		t.Fatalf("demoted node proposed %d", got)
	}
	// The stale delay timer must not resurrect the batch.
	fx.clk.Advance(2 * time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if got := len(fx.bft.proposals()); got != 0 {
		t.Fatalf("stale batch timer proposed %d", got)
	}
	// The records are still open under the new primary: soft timeouts run.
	if fx.layer.OpenRequests() != 2 {
		t.Fatalf("open = %d", fx.layer.OpenRequests())
	}
	fx.clk.Advance(250 * time.Millisecond)
	waitFor(t, func() bool { return fx.tr.numBroadcasts() == 2 })
}

func TestNewPrimaryReproposesIntoOneBatch(t *testing.T) {
	fx := newFixture(t, 1, func(c *Config) { c.MaxBatch = 8 }) // backup under r0
	fx.layer.OnBusRecord(0, []byte("held-1"))
	fx.layer.OnBusRecord(0, []byte("held-2"))
	if len(fx.bft.proposals()) != 0 {
		t.Fatal("backup proposed")
	}

	fx.layer.OnNewPrimary(1, 1) // we become primary: re-propose, flushed at once

	props := fx.bft.proposals()
	if len(props) != 1 || !props[0].Batch {
		t.Fatalf("proposals after promotion = %+v, want one batch", props)
	}
	items, err := pbft.DecodeBatch(props[0].Payload)
	if err != nil || len(items) != 2 {
		t.Fatalf("promotion batch = %d items, err %v", len(items), err)
	}
}

func TestPeerBatchRequestRejected(t *testing.T) {
	fx := newFixture(t, 0, func(c *Config) { c.MaxBatch = 8 })
	inner := pbft.Request{Payload: []byte("smuggled"), Origin: 2}
	pbft.SignRequest(&inner, fx.kps[2])
	req := pbft.Request{Payload: pbft.EncodeBatch([]pbft.Request{inner}), Batch: true}
	pbft.SignRequest(&req, fx.kps[2])

	fx.tr.handler(2, wire.Marshal(&ZCRequest{Req: req}))
	if len(fx.bft.proposals()) != 0 || fx.layer.OpenRequests() != 0 {
		t.Error("batch-flagged peer request admitted")
	}
}

func TestBatchingPreservesWindowInvariant(t *testing.T) {
	// Randomized decides arriving as batches must never log a payload
	// twice within the window (§III-B), same invariant as the unbatched
	// random-schedule test.
	fx := newFixture(t, 1, func(c *Config) { c.WindowSeqs = 50 })
	var seq uint64
	for round := 0; round < 60; round++ {
		recs := make([]pbft.Request, 0, 4)
		for i := 0; i < 1+(round%4); i++ {
			// Overlapping payload space forces in-window duplicates.
			recs = append(recs, pbft.Request{
				Payload: []byte(fmt.Sprintf("p-%d", (round*3+i)%40)),
				Origin:  crypto.NodeID(i % 4),
			})
		}
		seq++
		fx.layer.OnDecide(seq, fx.batchOf(0, recs...))
	}
	lastAt := make(map[string]uint64)
	for _, e := range fx.rec.entries() {
		if prev, ok := lastAt[e.payload]; ok && e.seq-prev <= 50 {
			t.Fatalf("payload %q logged at seq %d and again at %d", e.payload, prev, e.seq)
		}
		lastAt[e.payload] = e.seq
	}
}

// pacedFixture is a primary batching up to maxBatch records with a 2ms
// MaxBatchDelay, on a fake clock that starts at its creation.
func pacedFixture(t *testing.T, maxBatch int) *layerFixture {
	return newFixture(t, 0, func(c *Config) {
		c.MaxBatch = maxBatch
		c.MaxBatchDelay = 2 * time.Millisecond
	})
}

func TestIdlePrimaryProposesAtOnce(t *testing.T) {
	fx := pacedFixture(t, 8)
	fx.clk.Advance(3 * time.Millisecond) // idle longer than MaxBatchDelay
	fx.layer.OnBusRecord(0, []byte("alone"))

	props := fx.bft.proposals()
	if len(props) != 1 {
		t.Fatalf("proposals = %d, want the record proposed at once", len(props))
	}
	if props[0].Batch || string(props[0].Payload) != "alone" {
		t.Errorf("idle flush = %+v, want a plain proposal", props[0])
	}
	fx.layer.mu.Lock()
	armed := fx.layer.deadlines.queued(&fx.layer.batchDelay)
	fx.layer.mu.Unlock()
	if armed {
		t.Error("idle flush armed the batch timer")
	}
	b := fx.layer.Batches()
	if b.IdleFlushes.Load() != 1 || b.DelayFlushes.Load() != 0 || b.SizeFlushes.Load() != 0 {
		t.Errorf("batch counters = %v, want one idle flush", b.Metrics())
	}
	if b.WaitMaxNs.Load() != 0 {
		t.Errorf("idle-flushed record waited %v", time.Duration(b.WaitMaxNs.Load()))
	}
}

func TestPacedRecordsFlushTogetherAtIntervalEnd(t *testing.T) {
	fx := pacedFixture(t, 8)
	fx.clk.Advance(3 * time.Millisecond)
	fx.layer.OnBusRecord(0, []byte("first")) // idle: flushed at t=3ms

	fx.clk.Advance(500 * time.Microsecond)
	fx.layer.OnBusRecord(0, []byte("b"))
	fx.clk.Advance(time.Millisecond)
	fx.layer.OnBusRecord(0, []byte("c"))
	// t=4.5ms: the pacing interval of the flush at 3ms runs to 5ms.
	fx.clk.Advance(499 * time.Microsecond)
	time.Sleep(20 * time.Millisecond)
	if got := len(fx.bft.proposals()); got != 1 {
		t.Fatalf("proposals before the interval ended = %d, want 1", got)
	}
	fx.clk.Advance(time.Microsecond)
	waitFor(t, func() bool { return len(fx.bft.proposals()) == 2 })

	items, err := pbft.DecodeBatch(fx.bft.proposals()[1].Payload)
	if err != nil || len(items) != 2 || string(items[0].Payload) != "b" || string(items[1].Payload) != "c" {
		t.Fatalf("paced batch = %d items, err %v", len(items), err)
	}
	b := fx.layer.Batches()
	if b.IdleFlushes.Load() != 1 || b.DelayFlushes.Load() != 1 {
		t.Errorf("batch counters = %v, want one idle and one delay flush", b.Metrics())
	}
	if wait := time.Duration(b.WaitMaxNs.Load()); wait != 1500*time.Microsecond {
		t.Errorf("oldest paced record waited %v, want 1.5ms", wait)
	}
}

func TestPacedRecordNeverWaitsLongerThanMaxBatchDelay(t *testing.T) {
	fx := pacedFixture(t, 8)
	// settle waits until a flush that is due has landed: timer callbacks
	// run on their own goroutines.
	settle := func() {
		waitFor(t, func() bool {
			l := fx.layer
			l.mu.Lock()
			defer l.mu.Unlock()
			return len(l.batch) == 0 || fx.clk.Now().Before(l.lastFlush.Add(l.cfg.MaxBatchDelay))
		})
	}
	// Arrival gaps in µs around the 2ms interval: after an idle stretch,
	// right after a flush, inside the interval and at its very end. No
	// step jumps past a pending flush, so each wait is measured exactly.
	gaps := []time.Duration{2500, 0, 300, 1700, 100, 1900, 1999, 1, 2000, 2000, 2000, 2000}
	for i, gap := range gaps {
		fx.clk.Advance(gap * time.Microsecond)
		settle()
		fx.layer.OnBusRecord(0, []byte(fmt.Sprintf("r%d", i)))
	}
	fx.clk.Advance(2 * time.Millisecond)
	settle()
	fx.clk.Advance(4 * time.Millisecond)
	fx.layer.OnBusRecord(0, []byte("after-idle"))

	b := fx.layer.Batches()
	if got, want := b.Records.Load(), uint64(len(gaps)+1); got != want {
		t.Fatalf("flushed %d records, want %d", got, want)
	}
	if wait := time.Duration(b.WaitMaxNs.Load()); wait != 2*time.Millisecond {
		t.Errorf("longest wait %v, want exactly MaxBatchDelay", wait)
	}
	if b.IdleFlushes.Load() != 2 || b.SizeFlushes.Load() != 0 {
		t.Errorf("batch counters = %v, want two idle flushes", b.Metrics())
	}
}

func TestPacedFullBatchStillFlushesAtOnce(t *testing.T) {
	fx := pacedFixture(t, 3)
	fx.clk.Advance(3 * time.Millisecond)
	fx.layer.OnBusRecord(0, []byte("first")) // idle flush opens an interval
	for _, p := range []string{"a", "b", "c"} {
		fx.layer.OnBusRecord(0, []byte(p))
	}
	props := fx.bft.proposals()
	if len(props) != 2 || !props[1].Batch {
		t.Fatalf("proposals = %d, want the idle flush and a full batch", len(props))
	}
	if b := fx.layer.Batches(); b.SizeFlushes.Load() != 1 || b.IdleFlushes.Load() != 1 {
		t.Errorf("batch counters = %v", b.Metrics())
	}
}
