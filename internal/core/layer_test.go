package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/pbft"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// fakeBFT records Propose and Suspect calls.
type fakeBFT struct {
	mu       sync.Mutex
	proposed []pbft.Request
	suspects []crypto.NodeID
}

func (f *fakeBFT) Propose(req pbft.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.proposed = append(f.proposed, req)
}

func (f *fakeBFT) Suspect(id crypto.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.suspects = append(f.suspects, id)
}

func (f *fakeBFT) proposals() []pbft.Request {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]pbft.Request, len(f.proposed))
	copy(out, f.proposed)
	return out
}

func (f *fakeBFT) suspicions() []crypto.NodeID {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]crypto.NodeID, len(f.suspects))
	copy(out, f.suspects)
	return out
}

// fakeTransport records sends and broadcasts.
type fakeTransport struct {
	mu         sync.Mutex
	id         crypto.NodeID
	handler    transport.Handler
	sent       []sentMsg
	broadcasts [][]byte
}

type sentMsg struct {
	to   crypto.NodeID
	data []byte
}

func (f *fakeTransport) LocalID() crypto.NodeID { return f.id }

func (f *fakeTransport) Send(to crypto.NodeID, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, sentMsg{to: to, data: data})
	return nil
}

func (f *fakeTransport) Broadcast(data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.broadcasts = append(f.broadcasts, data)
	return nil
}

func (f *fakeTransport) SetHandler(h transport.Handler) { f.handler = h }
func (f *fakeTransport) Close() error                   { return nil }

func (f *fakeTransport) numBroadcasts() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.broadcasts)
}

func (f *fakeTransport) sends() []sentMsg {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]sentMsg, len(f.sent))
	copy(out, f.sent)
	return out
}

// fakeRecorder records Log up-calls.
type fakeRecorder struct {
	mu     sync.Mutex
	logged []logEntry
}

type logEntry struct {
	seq     uint64
	origin  crypto.NodeID
	payload string
}

func (f *fakeRecorder) Log(seq uint64, origin crypto.NodeID, payload, sig []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.logged = append(f.logged, logEntry{seq: seq, origin: origin, payload: string(payload)})
}

func (f *fakeRecorder) entries() []logEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]logEntry, len(f.logged))
	copy(out, f.logged)
	return out
}

type layerFixture struct {
	layer *Layer
	bft   *fakeBFT
	tr    *fakeTransport
	rec   *fakeRecorder
	clk   *clock.Fake
	kps   map[crypto.NodeID]*crypto.KeyPair
	reg   *crypto.Registry
}

// newFixture creates a layer for node id in a 4-node registry. The initial
// primary is r0.
func newFixture(t *testing.T, id crypto.NodeID, tweak func(*Config)) *layerFixture {
	t.Helper()
	kps := make(map[crypto.NodeID]*crypto.KeyPair)
	var pairs []*crypto.KeyPair
	for i := 0; i < 4; i++ {
		kp := crypto.MustGenerateKeyPair(crypto.NodeID(i))
		kps[kp.ID] = kp
		pairs = append(pairs, kp)
	}
	reg := crypto.NewRegistry(pairs...)
	cfg := Config{
		ID:          id,
		SoftTimeout: 250 * time.Millisecond,
		HardTimeout: 250 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	fx := &layerFixture{
		bft: &fakeBFT{},
		tr:  &fakeTransport{id: id},
		rec: &fakeRecorder{},
		clk: clock.NewFake(),
		kps: kps,
		reg: reg,
	}
	fx.layer = New(cfg, kps[id], reg, fx.bft, fx.tr, fx.clk, fx.rec)
	fx.layer.OnNewPrimary(0, 0)
	t.Cleanup(fx.layer.Close)
	return fx
}

// waitFor polls until cond is true; timers fire on goroutines, so effects
// are asynchronous even with a fake clock.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// peerRequest builds a signed ZCRequest from the given origin.
func (fx *layerFixture) peerRequest(origin crypto.NodeID, payload string) []byte {
	req := pbft.Request{Payload: []byte(payload)}
	pbft.SignRequest(&req, fx.kps[origin])
	return wire.Marshal(&ZCRequest{Req: req})
}

func TestPrimaryProposesBusInputImmediately(t *testing.T) {
	fx := newFixture(t, 0, nil) // r0 is primary
	fx.layer.OnBusRecord(0, []byte("cycle-1"))

	props := fx.bft.proposals()
	if len(props) != 1 {
		t.Fatalf("proposals = %d, want 1", len(props))
	}
	if string(props[0].Payload) != "cycle-1" || props[0].Origin != 0 {
		t.Errorf("proposal = %+v", props[0])
	}
	if err := pbft.VerifyRequest(&props[0], fx.reg); err != nil {
		t.Errorf("proposal not signed: %v", err)
	}
	if fx.tr.numBroadcasts() != 0 {
		t.Error("primary broadcast its own input")
	}
}

func TestBackupWaitsThenBroadcasts(t *testing.T) {
	fx := newFixture(t, 1, nil) // backup; primary is r0
	fx.layer.OnBusRecord(0, []byte("cycle-1"))

	if len(fx.bft.proposals()) != 0 {
		t.Fatal("backup proposed directly")
	}
	if fx.tr.numBroadcasts() != 0 {
		t.Fatal("backup broadcast before soft timeout")
	}

	fx.clk.Advance(250 * time.Millisecond) // soft timeout
	waitFor(t, func() bool { return fx.tr.numBroadcasts() == 1 })

	msg, err := wire.Unmarshal(fx.tr.broadcasts[0])
	if err != nil {
		t.Fatal(err)
	}
	zc := msg.(*ZCRequest)
	if string(zc.Req.Payload) != "cycle-1" || zc.Req.Origin != 1 {
		t.Errorf("broadcast request = %+v", zc.Req)
	}
	if err := pbft.VerifyRequest(&zc.Req, fx.reg); err != nil {
		t.Errorf("broadcast not signed: %v", err)
	}
}

func TestDecideCancelsSoftTimeout(t *testing.T) {
	fx := newFixture(t, 1, nil)
	fx.layer.OnBusRecord(0, []byte("cycle-1"))

	req := pbft.Request{Payload: []byte("cycle-1")}
	pbft.SignRequest(&req, fx.kps[0])
	fx.layer.OnDecide(1, req)

	fx.clk.Advance(time.Second)
	time.Sleep(20 * time.Millisecond)
	if fx.tr.numBroadcasts() != 0 {
		t.Error("broadcast despite decide before soft timeout")
	}
	entries := fx.rec.entries()
	if len(entries) != 1 || entries[0].payload != "cycle-1" || entries[0].origin != 0 {
		t.Errorf("log = %+v", entries)
	}
}

func TestHardTimeoutSuspectsPrimary(t *testing.T) {
	fx := newFixture(t, 1, nil)
	fx.layer.OnBusRecord(0, []byte("cycle-1"))

	fx.clk.Advance(250 * time.Millisecond) // soft fires, hard armed
	waitFor(t, func() bool { return fx.tr.numBroadcasts() == 1 })
	fx.clk.Advance(250 * time.Millisecond) // hard fires
	waitFor(t, func() bool { return len(fx.bft.suspicions()) == 1 })

	if got := fx.bft.suspicions()[0]; got != 0 {
		t.Errorf("suspected %v, want the primary r0", got)
	}
}

func TestDecideAfterBroadcastCancelsHardTimeout(t *testing.T) {
	fx := newFixture(t, 1, nil)
	fx.layer.OnBusRecord(0, []byte("cycle-1"))
	fx.clk.Advance(250 * time.Millisecond)
	waitFor(t, func() bool { return fx.tr.numBroadcasts() == 1 })

	req := pbft.Request{Payload: []byte("cycle-1")}
	pbft.SignRequest(&req, fx.kps[1])
	fx.layer.OnDecide(1, req)

	fx.clk.Advance(time.Hour)
	time.Sleep(20 * time.Millisecond)
	if len(fx.bft.suspicions()) != 0 {
		t.Error("suspected primary despite decide")
	}
}

func TestDuplicateDecideSuspectsPrimary(t *testing.T) {
	fx := newFixture(t, 1, nil)
	req := pbft.Request{Payload: []byte("dup")}
	pbft.SignRequest(&req, fx.kps[0])

	fx.layer.OnDecide(1, req)
	fx.layer.OnDecide(2, req) // primary failed to filter

	if got := len(fx.rec.entries()); got != 1 {
		t.Errorf("logged %d times, want 1", got)
	}
	if len(fx.bft.suspicions()) != 1 || fx.bft.suspicions()[0] != 0 {
		t.Errorf("suspicions = %v", fx.bft.suspicions())
	}
}

func TestDuplicateOutsideWindowLoggedAgain(t *testing.T) {
	fx := newFixture(t, 1, func(c *Config) { c.WindowSeqs = 5 })
	dup := pbft.Request{Payload: []byte("dup")}
	pbft.SignRequest(&dup, fx.kps[0])

	fx.layer.OnDecide(1, dup)
	for seq := uint64(2); seq <= 7; seq++ {
		r := pbft.Request{Payload: []byte{byte(seq)}}
		pbft.SignRequest(&r, fx.kps[0])
		fx.layer.OnDecide(seq, r)
	}
	fx.layer.OnDecide(8, dup) // original evicted: log it again, no suspicion

	if len(fx.bft.suspicions()) != 0 {
		t.Error("suspected primary for out-of-window duplicate")
	}
	entries := fx.rec.entries()
	if got := entries[len(entries)-1]; got.seq != 8 || got.payload != "dup" {
		t.Errorf("last entry = %+v", got)
	}
}

func TestBusDuplicateOfDecidedIsFiltered(t *testing.T) {
	fx := newFixture(t, 0, nil)
	req := pbft.Request{Payload: []byte("seen")}
	pbft.SignRequest(&req, fx.kps[1])
	fx.layer.OnDecide(1, req)

	fx.layer.OnBusRecord(0, []byte("seen"))
	if len(fx.bft.proposals()) != 0 {
		t.Error("decided payload proposed again")
	}
}

func TestBusDuplicateOfOpenIsFiltered(t *testing.T) {
	fx := newFixture(t, 0, nil)
	fx.layer.OnBusRecord(0, []byte("p"))
	fx.layer.OnBusRecord(1, []byte("p")) // same payload from a second source
	if got := len(fx.bft.proposals()); got != 1 {
		t.Errorf("proposals = %d, want 1", got)
	}
	if fx.layer.OpenRequests() != 1 {
		t.Errorf("open = %d", fx.layer.OpenRequests())
	}
}

func TestPrimaryProposesPeerBroadcastWithBroadcasterID(t *testing.T) {
	fx := newFixture(t, 0, nil)
	fx.tr.handler(2, fx.peerRequest(2, "from-r2"))

	props := fx.bft.proposals()
	if len(props) != 1 {
		t.Fatalf("proposals = %d", len(props))
	}
	if props[0].Origin != 2 {
		t.Errorf("origin = %v, want the broadcasting node r2", props[0].Origin)
	}
}

func TestBackupForwardsPeerBroadcastToPrimary(t *testing.T) {
	fx := newFixture(t, 1, nil)
	fx.tr.handler(2, fx.peerRequest(2, "from-r2"))

	sends := fx.tr.sends()
	if len(sends) != 1 || sends[0].to != 0 {
		t.Fatalf("sends = %+v, want forward to primary r0", sends)
	}
	// Hard timer armed: expiry without decide suspects the primary.
	fx.clk.Advance(250 * time.Millisecond)
	waitFor(t, func() bool { return len(fx.bft.suspicions()) == 1 })
}

func TestPeerBroadcastAlreadyDecidedIgnored(t *testing.T) {
	fx := newFixture(t, 0, nil)
	req := pbft.Request{Payload: []byte("done")}
	pbft.SignRequest(&req, fx.kps[2])
	fx.layer.OnDecide(1, req)

	fx.tr.handler(2, fx.peerRequest(2, "done"))
	if len(fx.bft.proposals()) != 0 {
		t.Error("decided payload proposed from peer broadcast")
	}
}

func TestPeerBroadcastBadSignatureDropped(t *testing.T) {
	fx := newFixture(t, 0, nil)
	req := pbft.Request{Payload: []byte("forged"), Origin: 2, Sig: make([]byte, crypto.SignatureSize)}
	fx.tr.handler(2, wire.Marshal(&ZCRequest{Req: req}))
	if len(fx.bft.proposals()) != 0 {
		t.Error("unsigned peer request accepted")
	}
	if fx.layer.OpenRequests() != 0 {
		t.Error("unsigned peer request queued")
	}
}

func TestPerOriginRateLimit(t *testing.T) {
	fx := newFixture(t, 1, func(c *Config) { c.MaxOpenPerOrigin = 3 })
	for i := 0; i < 10; i++ {
		fx.tr.handler(2, fx.peerRequest(2, "flood-"+string(rune('a'+i))))
	}
	if got := fx.layer.OpenRequests(); got != 3 {
		t.Errorf("open = %d, want the limit 3", got)
	}
	// Decide frees budget: one more is admitted afterwards.
	req := pbft.Request{Payload: []byte("flood-a")}
	pbft.SignRequest(&req, fx.kps[2])
	fx.layer.OnDecide(1, req)
	fx.tr.handler(2, fx.peerRequest(2, "flood-k"))
	if got := fx.layer.OpenRequests(); got != 3 {
		t.Errorf("open after decide+readmit = %d, want 3", got)
	}
}

func TestRateLimitDoesNotThrottleBusInput(t *testing.T) {
	fx := newFixture(t, 1, func(c *Config) { c.MaxOpenPerOrigin = 2 })
	for i := 0; i < 5; i++ {
		fx.layer.OnBusRecord(0, []byte{byte(i)})
	}
	if got := fx.layer.OpenRequests(); got != 5 {
		t.Errorf("open = %d; local bus input must not be rate limited", got)
	}
}

func TestNewPrimarySelfReproposesOpenRequests(t *testing.T) {
	fx := newFixture(t, 1, nil) // backup under r0
	fx.layer.OnBusRecord(0, []byte("open-1"))
	fx.layer.OnBusRecord(0, []byte("open-2"))
	if len(fx.bft.proposals()) != 0 {
		t.Fatal("backup proposed")
	}

	fx.layer.OnNewPrimary(1, 1) // we become primary
	props := fx.bft.proposals()
	if len(props) != 2 {
		t.Fatalf("proposals after NewPrimary = %d, want 2", len(props))
	}
	for _, p := range props {
		if p.Origin != 1 {
			t.Errorf("re-proposal origin = %v", p.Origin)
		}
	}
}

func TestNewPrimaryBackupRestartsSoftTimeouts(t *testing.T) {
	fx := newFixture(t, 2, nil) // backup under r0 and under r1
	fx.layer.OnBusRecord(0, []byte("open"))
	fx.clk.Advance(200 * time.Millisecond) // soft timer at 250ms not yet fired

	fx.layer.OnNewPrimary(1, 1) // still a backup: timers restart
	fx.clk.Advance(200 * time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if fx.tr.numBroadcasts() != 0 {
		t.Fatal("old soft timer survived the view change")
	}
	fx.clk.Advance(50 * time.Millisecond) // full fresh soft timeout elapsed
	waitFor(t, func() bool { return fx.tr.numBroadcasts() == 1 })
}

func TestLatencyRecorded(t *testing.T) {
	fx := newFixture(t, 0, nil)
	fx.layer.OnBusRecord(0, []byte("m"))
	fx.clk.Advance(14 * time.Millisecond)
	req := pbft.Request{Payload: []byte("m")}
	pbft.SignRequest(&req, fx.kps[0])
	fx.layer.OnDecide(1, req)

	stats := fx.layer.Latency().Stats()
	if stats.Count != 1 || stats.Mean != 14*time.Millisecond {
		t.Errorf("latency stats = %+v", stats)
	}
}

func TestCloseStopsTimers(t *testing.T) {
	fx := newFixture(t, 1, nil)
	fx.layer.OnBusRecord(0, []byte("x"))
	fx.layer.Close()
	fx.clk.Advance(time.Hour)
	time.Sleep(20 * time.Millisecond)
	if fx.tr.numBroadcasts() != 0 || len(fx.bft.suspicions()) != 0 {
		t.Error("timers acted after Close")
	}
}

func TestPrePreparedDowngradesSoftToHard(t *testing.T) {
	fx := newFixture(t, 1, nil) // backup; primary r0
	fx.layer.OnBusRecord(0, []byte("observed"))

	// The primary's preprepare arrives before the soft timeout: the layer
	// cancels the soft timer (no broadcast) but keeps censorship
	// detection armed.
	fx.layer.OnPrePrepared(crypto.Hash([]byte("observed")))

	fx.clk.Advance(250 * time.Millisecond) // old soft deadline passes
	time.Sleep(20 * time.Millisecond)
	if fx.tr.numBroadcasts() != 0 {
		t.Fatal("broadcast despite preprepare indication")
	}

	// But if the preprepare never commits, the hard timeout still fires.
	fx.clk.Advance(250 * time.Millisecond)
	waitFor(t, func() bool { return len(fx.bft.suspicions()) == 1 })
}

func TestPrePreparedThenDecideIsClean(t *testing.T) {
	fx := newFixture(t, 1, nil)
	fx.layer.OnBusRecord(0, []byte("fast"))
	fx.layer.OnPrePrepared(crypto.Hash([]byte("fast")))

	req := pbft.Request{Payload: []byte("fast")}
	pbft.SignRequest(&req, fx.kps[0])
	fx.layer.OnDecide(1, req)

	fx.clk.Advance(time.Hour)
	time.Sleep(20 * time.Millisecond)
	if fx.tr.numBroadcasts() != 0 || len(fx.bft.suspicions()) != 0 {
		t.Error("timers fired after decide")
	}
}

func TestPrePreparedUnknownDigestIgnored(t *testing.T) {
	fx := newFixture(t, 1, nil)
	fx.layer.OnPrePrepared(crypto.Hash([]byte("never seen"))) // must not panic
	if fx.layer.OpenRequests() != 0 {
		t.Error("phantom request created")
	}
}

func TestPrePreparedDoesNotRestartHardTimer(t *testing.T) {
	fx := newFixture(t, 1, nil)
	fx.layer.OnBusRecord(0, []byte("x"))
	fx.clk.Advance(250 * time.Millisecond) // soft fires -> broadcast + hard armed
	waitFor(t, func() bool { return fx.tr.numBroadcasts() == 1 })

	fx.clk.Advance(200 * time.Millisecond) // hard timer at 250 has 50 left
	fx.layer.OnPrePrepared(crypto.Hash([]byte("x")))
	fx.clk.Advance(50 * time.Millisecond) // original hard deadline
	waitFor(t, func() bool { return len(fx.bft.suspicions()) == 1 })
}

func TestMultipleInputSources(t *testing.T) {
	fx := newFixture(t, 0, nil) // primary
	// Two buses deliver distinct data in the same cycle; both are logged
	// (§III-C "Multiple Input Sources").
	fx.layer.OnBusRecord(0, []byte("mvb-frame"))
	fx.layer.OnBusRecord(1, []byte("profinet-frame"))
	if got := len(fx.bft.proposals()); got != 2 {
		t.Fatalf("proposals = %d, want one per source", got)
	}
	// Identical payload from two sources is still a duplicate.
	fx.layer.OnBusRecord(1, []byte("mvb-frame"))
	if got := len(fx.bft.proposals()); got != 2 {
		t.Errorf("cross-source duplicate proposed (total %d)", got)
	}
}

// TestLayerRandomScheduleInvariants drives the layer with randomized
// interleavings of bus input, peer broadcasts, decides, view changes and
// time advances, checking the core invariant: no payload is logged twice
// within the sliding window ("No correct process logs the same payload
// more than once", §III-B).
func TestLayerRandomScheduleInvariants(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fx := newFixture(t, 1, func(c *Config) { c.WindowSeqs = 50 })

			var seq uint64
			pool := make([][]byte, 0, 64) // payloads in circulation
			for step := 0; step < 400; step++ {
				switch rng.Intn(6) {
				case 0: // fresh bus input
					p := []byte(fmt.Sprintf("payload-%d-%d", seed, step))
					pool = append(pool, p)
					fx.layer.OnBusRecord(rng.Intn(2), p)
				case 1: // repeated bus input
					if len(pool) > 0 {
						fx.layer.OnBusRecord(0, pool[rng.Intn(len(pool))])
					}
				case 2: // peer broadcast of a circulating payload
					if len(pool) > 0 {
						origin := crypto.NodeID(rng.Intn(4))
						req := pbft.Request{Payload: pool[rng.Intn(len(pool))]}
						pbft.SignRequest(&req, fx.kps[origin])
						fx.tr.handler(origin, wire.Marshal(&ZCRequest{Req: req}))
					}
				case 3: // decide on a circulating payload
					if len(pool) > 0 {
						seq++
						origin := crypto.NodeID(rng.Intn(4))
						req := pbft.Request{Payload: pool[rng.Intn(len(pool))]}
						pbft.SignRequest(&req, fx.kps[origin])
						fx.layer.OnDecide(seq, req)
					}
				case 4: // time passes; timers may fire
					fx.clk.Advance(time.Duration(rng.Intn(300)) * time.Millisecond)
				case 5: // view change
					fx.layer.OnNewPrimary(uint64(step), crypto.NodeID(rng.Intn(4)))
				}
			}

			// Invariant: within any WindowSeqs-wide window of the decide
			// sequence, each payload appears at most once in the log.
			entries := fx.rec.entries()
			lastAt := make(map[string]uint64)
			for _, e := range entries {
				if prev, ok := lastAt[e.payload]; ok {
					if e.seq-prev <= 50 {
						t.Fatalf("payload %q logged at seq %d and again at %d (window 50)",
							e.payload, prev, e.seq)
					}
				}
				lastAt[e.payload] = e.seq
			}
		})
	}
}

// TestStartupAnnouncementDoesNotRepropose guards the race at node start: bus
// records can reach the layer (and be proposed into the engine) before the
// engine's own startup NEWPRIMARY announcement is pumped through the runner.
// That announcement re-states the view the layer already operates in, so it
// must not reset the proposed flags — re-proposing would order every open
// record twice and make all replicas suspect an honest primary.
func TestStartupAnnouncementDoesNotRepropose(t *testing.T) {
	fx := newFixture(t, 0, nil)
	fx.layer.OnBusRecord(0, []byte("early-1"))
	fx.layer.OnBusRecord(0, []byte("early-2"))
	if got := len(fx.bft.proposals()); got != 2 {
		t.Fatalf("proposals = %d, want 2", got)
	}

	// The engine's startup announcement arrives after the records.
	fx.layer.OnNewPrimary(0, 0)
	if got := len(fx.bft.proposals()); got != 2 {
		t.Errorf("proposals after startup announcement = %d, want still 2", got)
	}

	// A real view change still re-proposes open records once we are the
	// primary of the new view.
	fx.layer.OnNewPrimary(4, 0)
	if got := len(fx.bft.proposals()); got != 4 {
		t.Errorf("proposals after real view change = %d, want 4", got)
	}
}

// TestPayloadServesOpenRecords: a backup rebuilds its primary's referenced
// proposals from R, and only while the record is open; every lookup is
// counted as a hit or a miss.
func TestPayloadServesOpenRecords(t *testing.T) {
	fx := newFixture(t, 1, nil)
	payload := []byte("cycle-1")
	fx.layer.OnBusRecord(0, payload)
	d := crypto.Hash(payload)

	got, ok := fx.layer.Payload(d)
	if !ok || string(got) != "cycle-1" {
		t.Fatalf("Payload(open record) = %q, %v", got, ok)
	}
	if _, ok := fx.layer.Payload(crypto.Hash([]byte("never read"))); ok {
		t.Fatal("Payload found a record this node never read")
	}
	req := pbft.Request{Payload: payload}
	pbft.SignRequest(&req, fx.kps[0])
	fx.layer.OnDecide(1, req)
	if _, ok := fx.layer.Payload(d); ok {
		t.Fatal("Payload still serves a decided record")
	}
	c := fx.layer.Counters()
	if c.PayloadHits.Load() != 1 || c.PayloadMisses.Load() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", c.PayloadHits.Load(), c.PayloadMisses.Load())
	}
}
