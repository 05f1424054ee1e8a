package core

import (
	"testing"
	"time"

	"zugchain/internal/pbft"
)

// TestTimeoutArmingDoesNotAllocate guards the per-record timers of
// Algorithm 1: arming a record's soft timeout, escalating it to the hard
// timeout, re-arming and cancelling it are operations on the layer's
// deadline queue and allocate nothing once the queue's clock timer is armed.
func TestTimeoutArmingDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronization")
	}
	fx := newFixture(t, 1, nil) // a backup: its records wait on timeouts
	l := fx.layer
	st := newReqState(pbft.Request{Payload: make([]byte, 1024)})
	cycle := func() {
		l.mu.Lock()
		l.armSoftTimeout(st)
		l.armHardTimeout(st)
		l.deadlines.cancel(&st.timeout)
		l.armSoftTimeout(st)
		l.mu.Unlock()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("arming and re-arming a timeout allocates %v times, want 0", n)
	}
}

// TestDeadlineQueueArmsOneClockTimer: many open records share one clock
// timer, and a record decided before its timeout leaves the timer to fire
// idle rather than being replaced.
func TestDeadlineQueueArmsOneClockTimer(t *testing.T) {
	fx := newFixture(t, 1, nil)
	for i := 0; i < 20; i++ {
		fx.layer.OnBusRecord(0, []byte{byte(i)})
		fx.clk.Advance(time.Millisecond)
	}
	if got := fx.clk.PendingTimers(); got != 1 {
		t.Fatalf("20 open records hold %d clock timers, want 1", got)
	}
	for i := 0; i < 20; i++ {
		req := pbft.Request{Payload: []byte{byte(i)}}
		pbft.SignRequest(&req, fx.kps[0])
		fx.layer.OnDecide(uint64(i+1), req)
	}
	if open := fx.layer.OpenRequests(); open != 0 {
		t.Fatalf("%d records still open", open)
	}
	fx.clk.Advance(time.Hour)
	time.Sleep(20 * time.Millisecond)
	if fx.tr.numBroadcasts() != 0 || len(fx.bft.suspicions()) != 0 {
		t.Error("a decided record's timeout fired")
	}
	if got := fx.clk.PendingTimers(); got != 0 {
		t.Errorf("%d clock timers armed with nothing open, want 0", got)
	}
}
