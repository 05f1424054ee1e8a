package node

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/mvb"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
	"zugchain/internal/wal"
)

// sinkFront is the communication layer with OnBusRecord replaced by a
// counter, so a benchmark or guard sees the bus ingest path alone.
type sinkFront struct {
	FrontEnd
	records int
	bytes   int
}

func (s *sinkFront) OnBusRecord(_ int, payload []byte) {
	s.records++
	s.bytes += len(payload)
}

// newSinkNode is one replica whose front end swallows bus records.
func newSinkNode(tb testing.TB) (*Node, *sinkFront) {
	tb.Helper()
	ids := []crypto.NodeID{0, 1, 2, 3}
	var pairs []*crypto.KeyPair
	for _, id := range ids {
		pairs = append(pairs, crypto.MustGenerateKeyPair(id))
	}
	net := transport.NewNetwork()
	sink := &sinkFront{}
	n, err := NewWithFrontEnd(Config{ID: 0, Replicas: ids}, pairs[0], crypto.NewRegistry(pairs...),
		net.Endpoint(0), clock.NewFake(), func(env FrontEndEnv) FrontEnd {
			sink.FrontEnd = newLayer(env)
			return sink
		}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	n.Start()
	tb.Cleanup(func() {
		n.Stop()
		net.Close()
	})
	return n, sink
}

// busFrames returns count frames of about 1 KB each whose every signal
// changes from one frame to the next, so the default change-detection
// policies log all of them.
func busFrames(count int) []mvb.Frame {
	frames := make([]mvb.Frame, count)
	for i := range frames {
		c := uint64(i + 1)
		signals := []signal.Signal{
			{Port: signal.PortSpeed, Kind: signal.KindSpeed, Value: float64(c)},
			{Port: signal.PortOdometer, Kind: signal.KindOdometer, Value: float64(c) * 10},
			{Port: signal.PortBrake, Kind: signal.KindBrakePressure, Value: float64(c) / 10},
			{Port: signal.PortDoors, Kind: signal.KindDoorState, Discrete: uint32(c)},
			{Port: signal.PortBulk, Kind: signal.KindBulkData, Opaque: make([]byte, 900)},
		}
		frames[i].Cycle = c
		for _, s := range signals {
			frames[i].Ports = append(frames[i].Ports, mvb.PortData{Port: s.Port, Data: signal.EncodePort(s)})
		}
	}
	return frames
}

// TestHandleFrameAllocatesOnce guards the bus ingest path: parsing,
// filtering and encoding a 1 KB frame allocates exactly once, the record
// encoding the front end keeps.
func TestHandleFrameAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronization")
	}
	n, sink := newSinkNode(t)
	frames := busFrames(202)
	i := 0
	feed := func() {
		n.HandleFrameSource(0, frames[i])
		i++
	}
	feed()
	if allocs := testing.AllocsPerRun(200, feed); allocs != 1 {
		t.Errorf("HandleFrameSource allocates %v times per 1 KB frame, want 1", allocs)
	}
	if sink.records != len(frames) || sink.bytes < len(frames)*1000 {
		t.Errorf("front end saw %d records, %d bytes; want %d records of about 1 KB", sink.records, sink.bytes, len(frames))
	}
}

// BenchmarkHandleFrame measures the bus ingest path for a 1 KB frame:
// parse, filter and record encoding (run with -benchmem).
func BenchmarkHandleFrame(b *testing.B) {
	n, _ := newSinkNode(b)
	frames := busFrames(1024)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		n.HandleFrameSource(0, frames[i%len(frames)])
		i++
	}
}

// TestPersistPreparedCertDoesNotAllocate guards the WAL append before every
// outbound Commit: the vote and the prepared certificate are framed straight
// into a pooled buffer and handed to the group-commit writer through a
// pooled request, so the durable append allocates nothing.
func TestPersistPreparedCertDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	log, _, _, err := wal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cert := &pbft.PreparedProof{
		PrePrepare: pbft.PrePrepare{View: 1, Seq: 7, Req: pbft.Request{Payload: make([]byte, 1024), Sig: make([]byte, 64)}, Sig: make([]byte, 64)},
	}
	for id := crypto.NodeID(1); id <= 3; id++ {
		cert.Prepares = append(cert.Prepares, pbft.Prepare{View: 1, Seq: 7, Replica: id, Sig: make([]byte, 64)})
	}
	recs := []pbft.PersistRecord{
		{Kind: pbft.PersistCommit, View: 1, Seq: 7},
		{Kind: pbft.PersistPreparedCert, View: 1, Seq: 7, Cert: cert},
	}
	p := walPersister{log}
	persist := func() {
		if err := p.Persist(recs); err != nil {
			t.Fatal(err)
		}
	}
	persist()
	if n := testing.AllocsPerRun(50, persist); n != 0 {
		t.Errorf("persisting a commit with its prepared certificate allocates %v times, want 0", n)
	}
}

// rotateAllocs pins the allocations of one WAL rotation of a replica with
// votes, certificates and window entries in flight (44 on linux/amd64):
// almost all of them are the writer's file operations — the new segment,
// the rename, the directory listing and syncs — plus the proof and the
// journal line, a fixed count whatever the snapshot holds. A per-record
// copy would add one per certificate or window entry.
const rotateAllocs = 44

// TestRotateWALAllocations guards rotateWAL's snapshot: each record is
// framed straight into the rotation's buffer, and the scratch slices are
// reused from one rotation to the next.
func TestRotateWALAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	root := t.TempDir()
	c := newCluster(t, func(cfg *Config) {
		cfg.DataDir = filepath.Join(root, fmt.Sprint(cfg.ID))
	}, nil)
	c.tickUntilSeq(25, 20*time.Second)
	n := c.nodes[1]
	n.runner.Stop() // the test goroutine now owns the engine
	proof := n.engine.StableCheckpoint()
	votes := len(n.engine.VoteRecords(nil))
	certs := len(n.engine.PreparedCerts(nil))
	window := len(n.front.WindowSnapshot(nil, proof.Seq))
	if proof.Seq == 0 || votes == 0 || certs == 0 || window == 0 {
		t.Fatalf("snapshot holds proof at %d, %d votes, %d certificates, %d window entries; want all in flight",
			proof.Seq, votes, certs, window)
	}
	rotate := func() { n.rotateWAL(proof) }
	rotate()
	if a := testing.AllocsPerRun(20, rotate); a > rotateAllocs {
		t.Errorf("rotateWAL allocates %v times for %d votes, %d certificates and %d window entries, want at most %d",
			a, votes, certs, window, rotateAllocs)
	}
}
