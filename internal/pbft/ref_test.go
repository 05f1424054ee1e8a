package pbft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// mapSource is a PayloadSource over a fixed set of payloads.
type mapSource map[crypto.Digest][]byte

func (s mapSource) Payload(d crypto.Digest) ([]byte, bool) {
	p, ok := s[d]
	return p, ok
}

func (s mapSource) add(payloads ...[]byte) mapSource {
	for _, p := range payloads {
		s[crypto.Hash(p)] = p
	}
	return s
}

// refCases returns signed preprepares with a plain, a batched and a null
// request, and a source holding every payload they reference.
func refCases(t *testing.T) (map[string]*PrePrepare, mapSource, *crypto.Registry) {
	t.Helper()
	kps, reg := testKeys(t, 4)
	src := mapSource{}

	record := Request{Payload: fixedBytes(1024, 1)}
	SignRequest(&record, kps[1])
	src.add(record.Payload)

	var items []Request
	for i := 0; i < 3; i++ {
		item := Request{Payload: fixedBytes(100+i, byte(10*i))}
		SignRequest(&item, kps[i])
		items = append(items, item)
		src.add(item.Payload)
	}
	batch := Request{Payload: EncodeBatch(items), Batch: true}
	SignRequest(&batch, kps[0])

	out := map[string]*PrePrepare{
		"single": {View: 0, Seq: 7, Req: record, Replica: 0},
		"batch":  {View: 0, Seq: 8, Req: batch, Replica: 0},
		"null":   {View: 0, Seq: 9, Req: Request{}, Replica: 0},
	}
	for _, pp := range out {
		sign(pp, kps[0])
	}
	return out, src, reg
}

// TestPrePrepareRefHydratesToFull: a reference built from a signed
// preprepare, sent over the wire and rebuilt from the payloads the backup
// holds, is byte for byte the full message, and its envelope signature and
// request signatures verify.
func TestPrePrepareRefHydratesToFull(t *testing.T) {
	cases, src, reg := refCases(t)
	for name, pp := range cases {
		ref := newPrePrepareRef(pp)
		if ref == nil {
			t.Fatalf("%s: no reference", name)
		}
		msg, err := wire.Unmarshal(wire.Marshal(ref))
		if err != nil {
			t.Fatalf("%s: decode ref: %v", name, err)
		}
		got, ok := msg.(*PrePrepareRef).hydrate(src)
		if !ok {
			t.Fatalf("%s: hydrate missed", name)
		}
		if !bytes.Equal(wire.Marshal(got), wire.Marshal(pp)) {
			t.Fatalf("%s: hydrated encoding differs from the full message", name)
		}
		check := preVerify
		if pp.Req.IsNull() {
			// A null request carries no request signature; only the
			// envelope is signed.
			check = func(m signable, reg *crypto.Registry, _ *crypto.VerifyPool) error { return verify(m, reg) }
		}
		if err := check(got, reg, nil); err != nil {
			t.Fatalf("%s: hydrated preprepare does not verify: %v", name, err)
		}
	}
}

// TestPrePrepareRefSize: a recorder-sized record's reference replaces the
// 1 KB payload (2-byte length prefix) by its 32-byte digest (1-byte prefix).
func TestPrePrepareRefSize(t *testing.T) {
	cases, _, _ := refCases(t)
	pp := cases["single"]
	full, ref := len(wire.Marshal(pp)), len(wire.Marshal(newPrePrepareRef(pp)))
	if ref > 200 || full-ref != (1024+2)-(32+1) {
		t.Fatalf("ref %d B, full %d B: want ≤ 200 B, only the payload replaced", ref, full)
	}
}

// TestPrePrepareRefWrongPayloadFailsVerify: a source answering with a
// payload that does not match the reference yields a preprepare whose
// signatures fail, so nothing a backup holds is trusted blindly.
func TestPrePrepareRefWrongPayloadFailsVerify(t *testing.T) {
	cases, src, reg := refCases(t)
	for _, name := range []string{"single", "batch"} {
		ref := newPrePrepareRef(cases[name])
		wrong := mapSource{}
		for d, p := range src {
			tampered := append([]byte(nil), p...)
			tampered[0] ^= 1
			wrong[d] = tampered
		}
		got, ok := ref.hydrate(wrong)
		if !ok {
			t.Fatalf("%s: hydrate missed", name)
		}
		if err := preVerify(got, reg, nil); err == nil {
			t.Fatalf("%s: preprepare rebuilt from a wrong payload verified", name)
		}
	}
}

// TestPrePrepareRefMissingPayload: without the payload (or without any
// source) hydration reports a miss, which makes the backup fetch.
func TestPrePrepareRefMissingPayload(t *testing.T) {
	cases, src, _ := refCases(t)
	for _, name := range []string{"single", "batch"} {
		ref := newPrePrepareRef(cases[name])
		if _, ok := ref.hydrate(nil); ok {
			t.Fatalf("%s: hydrated without a source", name)
		}
		if _, ok := ref.hydrate(mapSource{}); ok {
			t.Fatalf("%s: hydrated from an empty source", name)
		}
	}
	// One inner record missing is enough for a batch to miss.
	partial := mapSource{}
	for d, p := range src {
		partial[d] = p
	}
	items, _ := DecodeBatch(cases["batch"].Req.Payload)
	delete(partial, items[1].PayloadDigest())
	if _, ok := newPrePrepareRef(cases["batch"]).hydrate(partial); ok {
		t.Fatal("batch hydrated with one record missing")
	}
}

// FuzzPrePrepareRefDecode: arbitrary bytes never panic the ref decoder or
// hydration, and every accepted ref re-encodes to its input.
func FuzzPrePrepareRefDecode(f *testing.F) {
	cases, src, _ := refCases(&testing.T{})
	for _, pp := range cases {
		f.Add(wire.Marshal(newPrePrepareRef(pp)))
	}
	f.Add([]byte{byte(typePrePrepareRef), 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		ref, ok := msg.(*PrePrepareRef)
		if !ok {
			return
		}
		if !bytes.Equal(wire.Marshal(ref), data) {
			t.Fatal("decode/encode round trip changed the bytes")
		}
		ref.hydrate(src)
	})
}

// TestFetchAnsweredOncePerPeerAndSeq: the primary answers a fetch for its
// own proposal with the signed preprepare from its log exactly once per
// (peer, seq), then sends that peer full preprepares; fetches outside the
// watermarks, from strangers or to backups go unanswered.
func TestFetchAnsweredOncePerPeerAndSeq(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.propose(0, "a")
	c.run()
	c.assertAllDelivered("a")
	primary := c.engines[0]

	acts := primary.Receive(3, &PrePrepareFetch{View: 0, Seq: 1})
	if len(acts) != 1 {
		t.Fatalf("fetch answered with %d actions, want 1", len(acts))
	}
	send, ok := acts[0].(SendAction)
	if !ok || send.To != 3 || send.Msg != primary.log[1].preprepare {
		t.Fatalf("fetch answer = %#v, want the logged preprepare sent to 3", acts[0])
	}
	if !primary.proposalInline(3, 2) || primary.proposalInline(2, 2) {
		t.Fatal("only the fetching peer should get full preprepares")
	}
	if acts := primary.Receive(3, &PrePrepareFetch{View: 0, Seq: 1}); len(acts) != 0 {
		t.Fatal("second fetch for the same (peer, seq) answered")
	}
	window := primary.cfg.WatermarkWindow
	for _, f := range []struct {
		from crypto.NodeID
		msg  PrePrepareFetch
	}{
		{3, PrePrepareFetch{View: 0, Seq: window + 1}}, // above the high watermark
		{3, PrePrepareFetch{View: 0, Seq: 0}},          // at the low watermark
		{3, PrePrepareFetch{View: 1, Seq: 1}},          // another view
		{3, PrePrepareFetch{View: 0, Seq: 2}},          // never proposed
		{9, PrePrepareFetch{View: 0, Seq: 1}},          // not a replica
		{0, PrePrepareFetch{View: 0, Seq: 1}},          // itself
	} {
		if acts := primary.Receive(f.from, &f.msg); len(acts) != 0 {
			t.Errorf("fetch %+v from %v answered", f.msg, f.from)
		}
	}
	if acts := c.engines[1].Receive(3, &PrePrepareFetch{View: 0, Seq: 1}); len(acts) != 0 {
		t.Error("a backup answered a fetch for the primary's proposal")
	}
}

// TestFetchProbeAfterStableCheckpoint: the next stable checkpoint drops
// the answered fetches and sends a fetching peer one proposal by reference
// as a probe, the rest in full; preparing the probe returns the peer to
// references.
func TestFetchProbeAfterStableCheckpoint(t *testing.T) {
	c := newCluster(t, 4, nil)
	c.propose(0, "r0")
	c.run()
	primary := c.engines[0]
	primary.Receive(3, &PrePrepareFetch{View: 0, Seq: 1})
	for i := 1; i < DefaultCheckpointInterval; i++ {
		c.propose(0, fmt.Sprintf("r%d", i))
	}
	c.run()
	if primary.lowWater != DefaultCheckpointInterval {
		t.Fatalf("low water = %d, want a stable checkpoint at %d", primary.lowWater, DefaultCheckpointInterval)
	}
	if len(primary.fetched) != 0 {
		t.Fatalf("%d answered fetches survived the stable checkpoint", len(primary.fetched))
	}
	if primary.proposalInline(3, 11) {
		t.Fatal("first proposal after the checkpoint is not a probe")
	}
	if !primary.proposalInline(3, 12) {
		t.Fatal("proposal after the probe is not full")
	}
	p := &Prepare{View: 0, Seq: 12, Replica: 3}
	sign(p, c.kps[3])
	primary.Receive(3, p)
	if !primary.proposalInline(3, 13) {
		t.Fatal("a Prepare for another seq ended the probe")
	}
	p = &Prepare{View: 0, Seq: 11, Replica: 3}
	sign(p, c.kps[3])
	primary.Receive(3, p)
	if primary.proposalInline(3, 14) || len(primary.inline) != 0 {
		t.Fatal("preparing the probe did not return the peer to references")
	}
}

// TestNewViewOvertakenByPrePrepare: a replica that receives the new
// primary's first preprepare before the NewView installing that view holds
// it and replays it on installation instead of dropping it. Without the
// hold the replica never prepares the slot.
func TestNewViewOvertakenByPrePrepare(t *testing.T) {
	c := newCluster(t, 4, nil)
	var late []packet
	c.filter = func(p packet) bool {
		if msg, err := unmarshalPacket(p); err == nil && p.to == 2 {
			if _, ok := msg.(*NewView); ok {
				late = append(late, p)
				return false
			}
		}
		return true
	}
	c.suspect(1, 2, 3)
	c.run()
	if c.engines[1].View() != 1 || c.engines[2].View() != 0 {
		t.Fatalf("views = %d/%d, want the new view formed without replica 2", c.engines[1].View(), c.engines[2].View())
	}
	c.propose(1, "after")
	c.run()
	c.filter = nil
	c.queue = append(c.queue, late...)
	c.run()
	c.assertAgreement()
	if got := c.delivered[2]; len(got) != 1 || string(got[0].Req.Payload) != "after" {
		t.Fatalf("replica 2 delivered %v, want the preprepare that overtook the NewView", got)
	}
}

// sourceApp is a testApp that is also a PayloadSource.
type sourceApp struct {
	*testApp
	srcMu sync.Mutex
	src   mapSource
}

func (a *sourceApp) Payload(d crypto.Digest) ([]byte, bool) {
	a.srcMu.Lock()
	defer a.srcMu.Unlock()
	return a.src.Payload(d)
}

// TestRunnerBackupWithoutPayloadFetchesOnce: the primary proposes by
// reference; a backup that never read the payload fetches the full
// preprepare once, prepares, and gets the rest of the checkpoint interval
// in full without fetching again. After each stable checkpoint one probe
// goes by reference: a blind backup fetches it, a backup that reads the bus
// again prepares it and is back on references. Backups holding the
// payloads never fetch.
func TestRunnerBackupWithoutPayloadFetchesOnce(t *testing.T) {
	net := transport.NewNetwork()
	ids := []crypto.NodeID{0, 1, 2, 3}
	var pairs []*crypto.KeyPair
	for _, id := range ids {
		pairs = append(pairs, crypto.MustGenerateKeyPair(id))
	}
	reg := crypto.NewRegistry(pairs...)

	// Frames by sender and wire type, and the primary's proposals to 3.
	var sent [4][typePrePrepareFetch + 1]atomic.Int64
	var refsTo3, fullTo3 atomic.Int64
	for _, id := range ids {
		net.SetInterceptor(id, func(to crypto.NodeID, data []byte) (time.Duration, bool) {
			tag := wire.Type(binary.LittleEndian.Uint16(data))
			if tag <= typePrePrepareFetch {
				sent[id][tag].Add(1)
			}
			if id == 0 && to == 3 && tag == typePrePrepareRef {
				refsTo3.Add(1)
			}
			if id == 0 && to == 3 && tag == typePrePrepare {
				fullTo3.Add(1)
			}
			return 0, false
		})
	}
	apps := make([]*sourceApp, len(ids))
	runners := make([]*Runner, len(ids))
	for i, id := range ids {
		engine, err := NewEngine(Config{ID: id, Replicas: ids}, pairs[i], reg)
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = &sourceApp{testApp: newTestApp(), src: mapSource{}}
		runners[i] = NewRunner(engine, net.Endpoint(id), clock.Real{}, apps[i], RunnerConfig{BaseViewTimeout: time.Minute})
	}
	for _, r := range runners {
		r.Start()
	}
	t.Cleanup(func() {
		for _, r := range runners {
			r.Stop()
		}
		net.Close()
	})

	readers := 3 // replicas 0..readers-1 read the bus
	seq := 0
	propose := func() {
		seq++
		p := []byte(fmt.Sprintf("record-%d", seq))
		for _, a := range apps[:readers] {
			a.srcMu.Lock()
			a.src.add(p)
			a.srcMu.Unlock()
		}
		req := Request{Payload: p}
		SignRequest(&req, pairs[0])
		runners[0].Propose(req)
		for _, a := range apps {
			a.waitDeliveries(t, 1)
		}
	}
	// finishInterval proposes up to the next checkpoint and waits until the
	// primary holds it stable.
	finishInterval := func() {
		for seq%DefaultCheckpointInterval != 0 {
			propose()
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			apps[0].mu.Lock()
			n := len(apps[0].stable)
			apps[0].mu.Unlock()
			if n == seq/DefaultCheckpointInterval {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("no stable checkpoint at %d", seq)
			}
			time.Sleep(time.Millisecond)
		}
	}
	fetches := func() int64 { return sent[3][typePrePrepareFetch].Load() }

	propose()
	if fetches() != 1 || sent[3][typePrepare].Load() == 0 {
		t.Fatalf("replica 3: %d fetches and %d prepares after the first proposal, want 1 and some",
			fetches(), sent[3][typePrepare].Load())
	}
	finishInterval()
	if fetches() != 1 || refsTo3.Load() != 1 || fullTo3.Load() != DefaultCheckpointInterval {
		t.Fatalf("first interval: %d fetches, %d refs and %d full to replica 3, want 1, 1, %d",
			fetches(), refsTo3.Load(), fullTo3.Load(), DefaultCheckpointInterval)
	}

	// Still blind: the probe is fetched, the rest of the interval is full.
	propose()
	finishInterval()
	if fetches() != 2 || refsTo3.Load() != 2 {
		t.Fatalf("second interval: %d fetches and %d refs to replica 3, want 2 and 2", fetches(), refsTo3.Load())
	}

	// Reading again: the probe is rebuilt and prepared, references resume.
	readers = 4
	for i := 0; i < 5; i++ {
		propose()
	}
	if fetches() != 2 || refsTo3.Load() < 2+3 {
		t.Fatalf("third interval: %d fetches and %d refs to replica 3, want 2 and references resumed", fetches(), refsTo3.Load())
	}
	for _, id := range ids[:3] {
		if got := sent[id][typePrePrepareFetch].Load(); got != 0 {
			t.Fatalf("replica %v holding the payloads fetched %d times", id, got)
		}
	}
}
