package pbft

import (
	"sync"
	"testing"
	"time"

	"zugchain/internal/wire"
)

// TestRotationSnapshotKeepsInFlightVotes reproduces the crash window the WAL
// rotation snapshot must cover: votes for slots above a freshly stabilized
// checkpoint are cast before the checkpoint stabilizes, so VoteRecords must
// restate them — and a replica restored from exactly that snapshot must
// refuse a conflicting proposal for those slots.
func TestRotationSnapshotKeepsInFlightVotes(t *testing.T) {
	c := newCluster(t, 4, func(cfg *Config) { cfg.CheckpointInterval = 2 })
	c.propose(0, "a")
	c.propose(0, "b")
	c.run()
	reqC := c.propose(0, "c")
	c.run()

	backup := c.engines[1]
	if got := backup.Executed(); got != 3 {
		t.Fatalf("executed %d, want 3", got)
	}
	if got := backup.StableCheckpoint().Seq; got != 2 {
		t.Fatalf("stable checkpoint at %d, want 2", got)
	}

	recs := backup.VoteRecords(nil)
	if len(recs) == 0 {
		t.Fatal("VoteRecords empty: in-flight votes above the checkpoint lost")
	}
	kinds := make(map[PersistKind]bool)
	for _, r := range recs {
		if r.Seq != 3 {
			t.Errorf("vote record for seq %d, want only in-flight seq 3", r.Seq)
		}
		if r.Digest != reqC.Digest() {
			t.Errorf("vote record digest does not match the voted request")
		}
		kinds[r.Kind] = true
	}
	if !kinds[PersistPrepare] || !kinds[PersistCommit] {
		t.Errorf("vote kinds %v, want prepare and commit", kinds)
	}

	// Crash right after rotation: restore a fresh engine from nothing but
	// the snapshot. An equivocating primary re-proposing seq 3 with a
	// different request must be dropped without a vote.
	restarted, err := NewEngine(Config{ID: 1, Replicas: c.ids, CheckpointInterval: 2}, c.kps[1], c.reg)
	if err != nil {
		t.Fatal(err)
	}
	restarted.Restore(RestoredState{
		View:   0,
		Stable: backup.StableCheckpoint(),
		Pinned: recs,
	})

	evil := Request{Payload: []byte("evil")}
	SignRequest(&evil, c.kps[0])
	pp := &PrePrepare{View: 0, Seq: 3, Req: evil, Replica: 0}
	sign(pp, c.kps[0])
	if actions := restarted.Receive(0, pp); len(actions) != 0 {
		t.Fatalf("restarted replica reacted to a conflicting proposal for a pinned slot: %v", actions)
	}

	// The original proposal is accepted and re-voted (harmless retransmit).
	orig := &PrePrepare{View: 0, Seq: 3, Req: reqC, Replica: 0}
	sign(orig, c.kps[0])
	foundPrepare := false
	for _, a := range restarted.Receive(0, orig) {
		if bc, ok := a.(BroadcastAction); ok {
			if p, ok := bc.Msg.(*Prepare); ok && p.Seq == 3 && p.Digest == reqC.Digest() {
				foundPrepare = true
			}
		}
	}
	if !foundPrepare {
		t.Error("restarted replica did not re-vote the pinned digest")
	}
}

// TestPreparedCertRestoredIntoViewChange: a prepared certificate persisted
// pre-crash must survive the encode/restore round trip and back the
// restarted replica's ViewChange — otherwise two overlapping crash-restarts
// during a view change could form a NewView that nulls an executed slot.
func TestPreparedCertRestoredIntoViewChange(t *testing.T) {
	c := newCluster(t, 4, nil)
	req := c.propose(0, "a")
	c.run()

	cert := c.engines[1].PreparedCert(1)
	if cert == nil {
		t.Fatal("no prepared certificate recorded for seq 1")
	}
	decoded, err := DecodePreparedProof(wire.Encode(cert.EncodeTo))
	if err != nil {
		t.Fatal(err)
	}

	restarted, err := NewEngine(Config{ID: 1, Replicas: c.ids}, c.kps[1], c.reg)
	if err != nil {
		t.Fatal(err)
	}
	restarted.Restore(RestoredState{Certs: []PreparedProof{decoded}})
	if restarted.PreparedCert(1) == nil {
		t.Fatal("restored engine dropped a valid prepared certificate")
	}

	actions := restarted.Suspect(restarted.Primary())
	var vc *ViewChange
	for _, a := range actions {
		if bc, ok := a.(BroadcastAction); ok {
			if m, ok := bc.Msg.(*ViewChange); ok {
				vc = m
			}
		}
	}
	if vc == nil {
		t.Fatal("no ViewChange broadcast after Suspect")
	}
	found := false
	for i := range vc.Prepared {
		p := &vc.Prepared[i]
		if p.PrePrepare.Seq == 1 && p.PrePrepare.Req.Digest() == req.Digest() {
			found = true
		}
	}
	if !found {
		t.Error("restarted replica's ViewChange omits the slot it prepared pre-crash")
	}
}

// TestRestoreRejectsTamperedPreparedCert: disk contents are not implicitly
// trusted — a certificate whose prepare quorum was stripped must not enter
// the restored P set.
func TestRestoreRejectsTamperedPreparedCert(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.propose(0, "a")
	c.run()

	cert := *c.engines[1].PreparedCert(1)
	cert.Prepares = cert.Prepares[:1] // below the 2f quorum

	restarted, err := NewEngine(Config{ID: 1, Replicas: c.ids}, c.kps[1], c.reg)
	if err != nil {
		t.Fatal(err)
	}
	restarted.Restore(RestoredState{Certs: []PreparedProof{cert}})
	if restarted.PreparedCert(1) != nil {
		t.Fatal("restored engine accepted a certificate without a 2f prepare quorum")
	}
}

// capturePersister records every persisted batch for inspection.
type capturePersister struct {
	mu   sync.Mutex
	recs []PersistRecord
}

func (p *capturePersister) Persist(recs []PersistRecord) error {
	p.mu.Lock()
	p.recs = append(p.recs, recs...)
	p.mu.Unlock()
	return nil
}

func (p *capturePersister) snapshot() []PersistRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PersistRecord, len(p.recs))
	copy(out, p.recs)
	return out
}

// TestRunnerPersistsPreparedCertificates: the moment a backup sends its
// Commit, the persisted batch must carry the full prepared certificate.
func TestRunnerPersistsPreparedCertificates(t *testing.T) {
	rc := newRunnerCluster(t, 4, time.Second)
	req := Request{Payload: []byte("x")}
	SignRequest(&req, rc.kps[0])
	rc.runners[0].Propose(req)
	for _, id := range rc.ids {
		rc.apps[id].waitDeliveries(t, 1)
	}

	recs := rc.persisters[1].snapshot()
	var cert *PersistRecord
	sawCommit := false
	for i := range recs {
		switch {
		case recs[i].Kind == PersistPreparedCert && recs[i].Seq == 1:
			cert = &recs[i]
		case recs[i].Kind == PersistCommit && recs[i].Seq == 1:
			sawCommit = true
		}
	}
	if !sawCommit {
		t.Fatal("no commit persisted for seq 1")
	}
	if cert == nil {
		t.Fatal("commit persisted without its prepared certificate")
	}
	proof, err := DecodePreparedProof(wire.Encode(cert.Cert.EncodeTo))
	if err != nil {
		t.Fatalf("persisted certificate does not decode: %v", err)
	}
	if proof.PrePrepare.Seq != 1 || proof.PrePrepare.Req.Digest() != req.Digest() {
		t.Error("persisted certificate is for the wrong proposal")
	}
	if len(proof.Prepares) < 2 {
		t.Errorf("persisted certificate has %d prepares, want at least 2f=2", len(proof.Prepares))
	}
}
