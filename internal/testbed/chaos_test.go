package testbed

import (
	"testing"
	"time"

	"zugchain/internal/obsv"
	"zugchain/internal/transport"
)

// chaosBase is a fast, real-clock chaos scenario: 20 ms bus cycles, tight
// consensus timeouts, ~2.4 s of scheduled run before convergence. Under
// the race detector everything — signing, hashing, channel handoffs —
// slows by an order of magnitude, so the same event script runs on a 3×
// stretched clock to keep the timeouts honest.
func chaosBase(t *testing.T) ChaosScenario {
	t.Helper()
	scale := time.Duration(1)
	if RaceEnabled {
		scale = 3
	}
	return ChaosScenario{
		Scenario: Scenario{
			Nodes:              4,
			BusCycle:           scale * 20 * time.Millisecond,
			Cycles:             120,
			CheckpointInterval: 10,
			SoftTimeout:        scale * 150 * time.Millisecond,
			HardTimeout:        scale * 150 * time.Millisecond,
			ViewTimeout:        scale * 300 * time.Millisecond,
			Seed:               7,
		},
		StateRetryInterval: scale * 40 * time.Millisecond,
		DataRoot:           t.TempDir(),
	}
}

func checkChaosInvariants(t *testing.T, res *ChaosResult, minHeight uint64) {
	t.Helper()
	if res.MinHeight < minHeight {
		t.Errorf("cluster ordered only %d blocks, want >= %d (liveness)", res.MinHeight, minHeight)
	}
	if res.Diverged != "" {
		t.Errorf("chains diverged: %s", res.Diverged)
	}
	if res.DuplicateLogs != 0 {
		t.Errorf("%d payloads double-LOGged", res.DuplicateLogs)
	}
	for _, r := range res.Restarts {
		if r.Recovery.WALRecords == 0 {
			t.Errorf("node %d restarted without replaying WAL records", r.Node)
		}
		if r.Recovery.RestoredView < r.PreCrashView {
			t.Errorf("node %d restored view %d below pre-crash view %d (equivocation risk)",
				r.Node, r.Recovery.RestoredView, r.PreCrashView)
		}
	}
}

// TestChaosBackupCrashRestartWithPartitions crash-restarts a backup while a
// partition separates two other replicas and the transport drops, delays,
// and duplicates messages: f=1 crash plus asynchrony, within the §III-A
// fault budget. The cluster must keep ordering and the restarted replica
// must rejoin on the agreed chain without double-logging.
func TestChaosBackupCrashRestartWithPartitions(t *testing.T) {
	s := chaosBase(t)
	s.NetFaults = transport.LinkConfig{
		DropRate:      0.02,
		DelayRate:     0.2,
		MaxDelay:      5 * time.Millisecond,
		DuplicateRate: 0.1,
	}
	s.Crashes = []Crash{{Node: 3, KillAtCycle: 30, RestartAtCycle: 70}}
	s.Partitions = []Partition{{A: 1, B: 2, AtCycle: 45, HealAtCycle: 60}}

	res, err := RunChaos(s)
	if err != nil {
		t.Fatal(err)
	}
	checkChaosInvariants(t, res, 3)
	if len(res.Restarts) != 1 {
		t.Fatalf("expected 1 restart, got %d", len(res.Restarts))
	}
	if res.Restarts[0].Recovery.RestoredSeq == 0 {
		t.Error("restarted backup recovered no executed sequence")
	}
	if fs := res.FaultStats; fs.Dropped+fs.Delayed+fs.Duplicated == 0 {
		t.Error("fault injector was configured but injected nothing")
	}
	// The restarted backup's journal must carry its recovery event — the
	// evidence /eventz would show an operator after the crash.
	found := false
	for _, e := range res.Journals[3] {
		if e.Kind == obsv.EventRecovery {
			found = true
		}
	}
	if !found {
		t.Errorf("restarted backup journaled no recovery event: %v", res.Journals[3])
	}
}

// TestChaosPrimaryCrashRestart kills the view-0 primary. The backups view-
// change past it; the restarted primary comes back in a stale view and must
// be brought forward by a peer re-sending its NewView certificate, then
// catch up via state transfer.
func TestChaosPrimaryCrashRestart(t *testing.T) {
	s := chaosBase(t)
	s.Crashes = []Crash{{Node: 0, KillAtCycle: 30, RestartAtCycle: 80}}

	res, err := RunChaos(s)
	if err != nil {
		t.Fatal(err)
	}
	checkChaosInvariants(t, res, 3)
	if len(res.Restarts) != 1 {
		t.Fatalf("expected 1 restart, got %d", len(res.Restarts))
	}
	// Killing the view-0 primary forces the backups through a view change:
	// the journals must record the ViewChange broadcasts and the resulting
	// primary election (a new-primary event with View > 0).
	if got := res.CountEvents(obsv.EventViewChangeSent); got == 0 {
		t.Error("no replica journaled a view-change-sent event after the primary died")
	}
	elected := false
	for _, events := range res.Journals {
		for _, e := range events {
			if e.Kind == obsv.EventNewPrimary && e.View > 0 {
				elected = true
			}
		}
	}
	if !elected {
		t.Errorf("no replica journaled a primary election beyond view 0; journals: %v", res.Journals)
	}
	if got := res.CountEvents(obsv.EventRecovery); got == 0 {
		t.Error("restarted primary journaled no recovery event")
	}
}
