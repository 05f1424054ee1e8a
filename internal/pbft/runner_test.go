package pbft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/transport"
)

// testApp records application callbacks and answers checkpoint digests
// deterministically.
type testApp struct {
	mu        sync.Mutex
	delivered []DeliverAction
	lastSeq   uint64 // seq of the latest delivery
	stable    []CheckpointProof
	primaries []NewPrimaryAction
	transfers []StateTransferNeededAction
	deliverCh chan DeliverAction

	// transfer, when set, returns the deliveries of the slots in
	// (after, through] as a replica that executed them made them: the
	// blocks a node's state transfer would fetch.
	transfer func(after, through uint64) []DeliverAction
}

func newTestApp() *testApp {
	return &testApp{deliverCh: make(chan DeliverAction, 1024)}
}

func (a *testApp) Deliver(seq uint64, req Request) {
	act := DeliverAction{Seq: seq, Req: req}
	a.mu.Lock()
	a.delivered = append(a.delivered, act)
	a.lastSeq = seq
	a.mu.Unlock()
	a.deliverCh <- act
}

func (a *testApp) CheckpointDigest(seq uint64) crypto.Digest { return defaultDigest(seq) }

func (a *testApp) StableCheckpoint(proof CheckpointProof) {
	a.mu.Lock()
	a.stable = append(a.stable, proof)
	a.mu.Unlock()
}

func (a *testApp) NewPrimary(view uint64, primary crypto.NodeID) {
	a.mu.Lock()
	a.primaries = append(a.primaries, NewPrimaryAction{View: view, Primary: primary})
	a.mu.Unlock()
}

// StateTransferNeeded records the transfer and, when the app has a
// transfer source, installs the skipped slots as a node does: their
// deliveries arrive in order before any later slot's.
func (a *testApp) StateTransferNeeded(seq uint64, digest crypto.Digest) {
	a.mu.Lock()
	a.transfers = append(a.transfers, StateTransferNeededAction{TargetSeq: seq, Digest: digest})
	after, transfer := a.lastSeq, a.transfer
	a.mu.Unlock()
	if transfer == nil {
		return
	}
	for _, d := range transfer(after, seq) {
		a.Deliver(d.Seq, d.Req)
	}
}

// deliveredBetween returns the deliveries of the slots in (after, through]
// from a replica other than except that has executed through: what a state
// transfer of those slots installs.
func (rc *runnerCluster) deliveredBetween(except crypto.NodeID, after, through uint64) []DeliverAction {
	for _, id := range rc.ids {
		if id == except {
			continue
		}
		a := rc.apps[id]
		a.mu.Lock()
		var out []DeliverAction
		for _, d := range a.delivered {
			if d.Seq > after && d.Seq <= through {
				out = append(out, d)
			}
		}
		reached := a.lastSeq >= through
		a.mu.Unlock()
		if reached {
			return out
		}
	}
	return nil
}

func (a *testApp) waitDeliveries(t *testing.T, n int) []DeliverAction {
	t.Helper()
	out := make([]DeliverAction, 0, n)
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case d := <-a.deliverCh:
			out = append(out, d)
		case <-deadline:
			t.Fatalf("timed out after %d of %d deliveries", len(out), n)
		}
	}
	return out
}

type runnerCluster struct {
	net        *transport.Network
	runners    map[crypto.NodeID]*Runner
	apps       map[crypto.NodeID]*testApp
	kps        map[crypto.NodeID]*crypto.KeyPair
	ids        []crypto.NodeID
	persisters map[crypto.NodeID]*capturePersister
}

func newRunnerCluster(t *testing.T, n int, viewTimeout time.Duration) *runnerCluster {
	t.Helper()
	return newRunnerClusterClock(t, n, viewTimeout, clock.Real{})
}

func newRunnerClusterClock(t *testing.T, n int, viewTimeout time.Duration, clk clock.Clock) *runnerCluster {
	t.Helper()
	rc := &runnerCluster{
		net:        transport.NewNetwork(),
		runners:    make(map[crypto.NodeID]*Runner),
		apps:       make(map[crypto.NodeID]*testApp),
		kps:        make(map[crypto.NodeID]*crypto.KeyPair),
		persisters: make(map[crypto.NodeID]*capturePersister),
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
		persister := &capturePersister{}
		runner := NewRunner(engine, rc.net.Endpoint(id), clk, app,
			RunnerConfig{BaseViewTimeout: viewTimeout, Persister: persister})
		rc.apps[id] = app
		rc.persisters[id] = persister
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
	return rc
}

func (rc *runnerCluster) propose(onNode crypto.NodeID, payload string) {
	req := Request{Payload: []byte(payload)}
	SignRequest(&req, rc.kps[onNode])
	rc.runners[onNode].Propose(req)
}

func TestRunnerEndToEndOrdering(t *testing.T) {
	rc := newRunnerCluster(t, 4, time.Second)
	const n = 25
	for i := 0; i < n; i++ {
		rc.propose(0, fmt.Sprintf("req-%02d", i))
	}
	for _, id := range rc.ids {
		got := rc.apps[id].waitDeliveries(t, n)
		for i := 0; i < n; i++ {
			if want := fmt.Sprintf("req-%02d", i); string(got[i].Req.Payload) != want {
				t.Errorf("replica %v delivery %d = %q, want %q", id, i, got[i].Req.Payload, want)
			}
			if got[i].Seq != uint64(i+1) {
				t.Errorf("replica %v delivery %d seq = %d", id, i, got[i].Seq)
			}
		}
	}
	// 25 requests = 2 stable checkpoints everywhere.
	deadline := time.After(5 * time.Second)
	for _, id := range rc.ids {
		for {
			rc.apps[id].mu.Lock()
			n := len(rc.apps[id].stable)
			rc.apps[id].mu.Unlock()
			if n >= 2 {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("replica %v reached %d stable checkpoints", id, n)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
}

func TestRunnerViewChangeOnDeadPrimary(t *testing.T) {
	rc := newRunnerCluster(t, 4, 300*time.Millisecond)

	// Kill the primary's network and have the backups suspect it, as the
	// ZugChain layer's hard timeout would.
	rc.net.Isolate(0)
	for _, id := range rc.ids[1:] {
		rc.runners[id].Suspect(0)
	}

	// All surviving replicas must reach view 1 with primary r1.
	deadline := time.After(10 * time.Second)
	for _, id := range rc.ids[1:] {
		for {
			var view uint64
			var primary crypto.NodeID
			rc.runners[id].Inspect(func(e *Engine) {
				view = e.View()
				primary = e.Primary()
			})
			if view >= 1 && primary == 1 {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("replica %v stuck in view %d", id, view)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}

	// Ordering resumes under the new primary with 3 replicas.
	rc.propose(1, "after-failover")
	for _, id := range rc.ids[1:] {
		got := rc.apps[id].waitDeliveries(t, 1)
		if string(got[0].Req.Payload) != "after-failover" {
			t.Errorf("replica %v delivered %q", id, got[0].Req.Payload)
		}
	}
}

func TestRunnerViewTimerEscalatesPastDeadNewPrimary(t *testing.T) {
	rc := newRunnerCluster(t, 4, 150*time.Millisecond)

	// Both r0 (current primary) and r1 (next in line) are dead.
	rc.net.Isolate(0)
	rc.net.Isolate(1)
	for _, id := range rc.ids[2:] {
		rc.runners[id].Suspect(0)
	}

	// r2 and r3 alone are only 2 of 4 replicas — below the 2f+1 quorum —
	// so no view change can complete; they must keep escalating without
	// violating safety. Heal r1 and the cluster must converge on a view
	// led by a live primary.
	time.Sleep(400 * time.Millisecond) // let at least one escalation happen
	rc.net.Rejoin(1)

	deadline := time.After(15 * time.Second)
	for _, id := range rc.ids[1:] {
		for {
			var view uint64
			var primary crypto.NodeID
			var changing bool
			rc.runners[id].Inspect(func(e *Engine) {
				view = e.View()
				primary = e.Primary()
				changing = e.InViewChange()
			})
			if !changing && view >= 1 && primary != 0 {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("replica %v stuck (view %d, changing %v)", id, view, changing)
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
}

func TestRunnerInspectAndStop(t *testing.T) {
	rc := newRunnerCluster(t, 4, time.Second)
	var isPrimary bool
	rc.runners[0].Inspect(func(e *Engine) { isPrimary = e.IsPrimary() })
	if !isPrimary {
		t.Error("r0 should be primary of view 0")
	}
	rc.runners[3].Stop()
	// Stop is idempotent and post-stop calls are safe no-ops.
	rc.runners[3].Stop()
	rc.runners[3].Propose(Request{Payload: []byte("late")})
}

// observerApp extends testApp with the PrePrepareObserver hook.
type observerApp struct {
	*testApp
	mu    sync.Mutex
	hints []crypto.Digest
}

func (o *observerApp) OnPrePrepared(seq uint64, payloadDigest crypto.Digest) {
	o.mu.Lock()
	o.hints = append(o.hints, payloadDigest)
	o.mu.Unlock()
}

func (o *observerApp) hintCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.hints)
}

func TestRunnerPrePrepareObserver(t *testing.T) {
	rc := newRunnerCluster(t, 4, time.Second)

	// Replace replica 1's app with an observing one. The runner holds the
	// app by value, so rebuild that node's runner with the observer.
	rc.runners[1].Stop()
	engine, err := NewEngine(Config{ID: 1, Replicas: rc.ids}, rc.kps[1],
		registryOf(rc))
	if err != nil {
		t.Fatal(err)
	}
	obs := &observerApp{testApp: newTestApp()}
	runner := NewRunner(engine, rc.net.Endpoint(1), clock.Real{}, obs,
		RunnerConfig{BaseViewTimeout: time.Second})
	rc.runners[1] = runner
	rc.apps[1] = obs.testApp
	runner.Start()

	rc.propose(0, "hinted")
	obs.waitDeliveries(t, 1)
	if obs.hintCount() == 0 {
		t.Error("observer never received the preprepare hint")
	}
	mine := obs.hints[0]
	want := (&Request{Payload: []byte("hinted")}).PayloadDigest()
	if mine != want {
		t.Errorf("hint digest = %s, want %s", mine.Short(), want.Short())
	}
}

// registryOf rebuilds the registry used by a runner cluster.
func registryOf(rc *runnerCluster) *crypto.Registry {
	pairs := make([]*crypto.KeyPair, 0, len(rc.kps))
	for _, kp := range rc.kps {
		pairs = append(pairs, kp)
	}
	return crypto.NewRegistry(pairs...)
}

// TestRunnerViewTimerDoublesPerAttempt pins the view-change backoff schedule
// to a fake clock: each failed attempt doubles the progress timeout
// (BaseViewTimeout << attempt), so an isolated replica escalates at t, 3t,
// 7t, ... and never earlier.
func TestRunnerViewTimerDoublesPerAttempt(t *testing.T) {
	const base = 100 * time.Millisecond
	clk := clock.NewFake()
	rc := newRunnerClusterClock(t, 4, base, clk)

	// r3 is cut off: its view changes can never complete, so every armed
	// timer runs to expiry.
	rc.net.Isolate(3)
	rc.runners[3].Suspect(0)

	sentVCFor := func() uint64 {
		var v uint64
		rc.runners[3].Inspect(func(e *Engine) { v = e.sentVCFor })
		return v
	}
	waitFor := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for sentVCFor() != want {
			if time.Now().After(deadline) {
				t.Fatalf("sentVCFor = %d, want %d", sentVCFor(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	stableAt := func(want uint64) {
		t.Helper()
		time.Sleep(50 * time.Millisecond) // let any stray timer fire drain
		if got := sentVCFor(); got != want {
			t.Fatalf("sentVCFor = %d after partial advance, want %d", got, want)
		}
	}

	waitFor(1) // Suspect sends the first view change, attempt 0

	clk.Advance(base) // attempt 0 expires after base
	waitFor(2)

	clk.Advance(base) // attempt 1 needs 2*base: half is not enough
	stableAt(2)
	clk.Advance(base)
	waitFor(3)

	clk.Advance(2 * base) // attempt 2 needs 4*base: half is not enough
	stableAt(3)
	clk.Advance(2 * base)
	waitFor(4)
}

// TestRunnerViewTimerCancelledByLivePrimary: once the view change completes
// and a live primary takes over, the progress timer must be stopped — no
// amount of elapsed time may push the cluster into another view.
func TestRunnerViewTimerCancelledByLivePrimary(t *testing.T) {
	const base = 100 * time.Millisecond
	clk := clock.NewFake()
	rc := newRunnerClusterClock(t, 4, base, clk)

	for _, id := range rc.ids[1:] {
		rc.runners[id].Suspect(0)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range rc.ids[1:] {
		for {
			var view uint64
			var changing bool
			rc.runners[id].Inspect(func(e *Engine) {
				view = e.View()
				changing = e.InViewChange()
			})
			if view == 1 && !changing {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %v stuck before view 1", id)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The new primary is live (the view installed); a still-armed timer
	// would now fire and wrongly escalate to view 2.
	clk.Advance(1024 * base)
	time.Sleep(100 * time.Millisecond)
	for _, id := range rc.ids[1:] {
		var view, vcFor uint64
		rc.runners[id].Inspect(func(e *Engine) {
			view = e.View()
			vcFor = e.sentVCFor
		})
		if view != 1 || vcFor > 1 {
			t.Errorf("replica %v escalated past the live primary: view=%d sentVCFor=%d", id, view, vcFor)
		}
	}
}
