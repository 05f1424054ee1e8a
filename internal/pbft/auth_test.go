package pbft

import (
	"bytes"
	"testing"

	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
	"zugchain/internal/wire"
)

// tagCommit returns a copy of c carrying the tag from → to, derived from the
// two key pairs directly rather than through an engine.
func tagCommit(t testing.TB, kps map[crypto.NodeID]*crypto.KeyPair, from, to crypto.NodeID, c Commit) *Commit {
	t.Helper()
	key, err := kps[from].PairwiseKey(to, kps[to].Public)
	if err != nil {
		t.Fatal(err)
	}
	c.MAC = nil
	e := wire.NewEncoder(128)
	tag := make([]byte, crypto.MACSize)
	crypto.NewMACKey(key).Tag(tag, commitAuthBytesInto(e, &c, to))
	c.MAC = tag
	return &c
}

// badCommits lists Commits from 2 that replica 1 must drop, next to the
// sender to deliver each from, starting from good: a Commit from 2 that
// carries 2's valid tag for 1.
func badCommits(t testing.TB, kps map[crypto.NodeID]*crypto.KeyPair, good *Commit) map[string]struct {
	from crypto.NodeID
	c    *Commit
} {
	type bad = struct {
		from crypto.NodeID
		c    *Commit
	}
	with := func(f func(c *Commit)) *Commit {
		c := *good
		c.MAC = append([]byte(nil), good.MAC...)
		f(&c)
		return &c
	}
	return map[string]bad{
		"forged tag":                {2, with(func(c *Commit) { c.MAC = bytes.Repeat([]byte{0xab}, crypto.MACSize) })},
		"tag for another receiver":  {2, tagCommit(t, kps, 2, 3, *good)},
		"tag moved to another view": {2, with(func(c *Commit) { c.View++ })},
		"tag moved to another seq":  {2, with(func(c *Commit) { c.Seq++ })},
		"tag moved to another digest": {2, with(func(c *Commit) {
			c.Digest = crypto.Hash([]byte("other"))
		})},
		"claimed replica is not the sender": {3, good},
		"another replica's tag relabelled":  {3, with(func(c *Commit) { c.Replica = 3 })},
		"tag too short":                     {2, with(func(c *Commit) { c.MAC = c.MAC[:crypto.MACSize-1] })},
		"tag too long":                      {2, with(func(c *Commit) { c.MAC = append(c.MAC, 0) })},
		"signature-sized tag": {2, with(func(c *Commit) {
			c.MAC = append(c.MAC, make([]byte, crypto.SignatureSize-crypto.MACSize)...)
		})},
	}
}

// TestCommitAuthBytes pins what a tag covers: the Commit's wire encoding
// with an empty MAC, then the receiver's ID — whatever MAC it carries.
func TestCommitAuthBytes(t *testing.T) {
	c := &Commit{View: 3, Seq: 7, Digest: crypto.Hash([]byte("d")), Replica: 2, MAC: bytes.Repeat([]byte{9}, crypto.MACSize)}
	want := wire.Marshal(&Commit{View: c.View, Seq: c.Seq, Digest: c.Digest, Replica: c.Replica})
	want = append(want, 1, 0, 0, 0)
	e := wire.NewEncoder(16)
	if got := commitAuthBytesInto(e, c, 1); !bytes.Equal(got, want) {
		t.Fatalf("auth bytes\n got %x\nwant %x", got, want)
	}
	if len(c.MAC) != crypto.MACSize {
		t.Fatal("commitAuthBytesInto mutated the MAC")
	}
}

// TestCommitBroadcastTagsEachPeer: the engine emits one encoding per peer,
// each exactly the wire form of the Commit with that peer's tag, and only
// the addressed peer accepts it.
func TestCommitBroadcastTagsEachPeer(t *testing.T) {
	c := newCluster(t, 4, nil)
	own := &Commit{View: 0, Seq: 1, Digest: crypto.Hash([]byte("x")), Replica: 0}
	bc := c.engines[0].commitBroadcast(own)
	if bc.Msg != own || len(bc.PerPeer) != 3 || own.MAC != nil {
		t.Fatalf("broadcast = %+v", bc)
	}
	for _, s := range bc.PerPeer {
		want := tagCommit(t, c.kps, 0, s.To, *own)
		if !bytes.Equal(s.Encoded, wire.Marshal(want)) {
			t.Fatalf("encoding for %v differs from the Commit tagged for it", s.To)
		}
		if len(s.Encoded) != len(wire.Marshal(own))+crypto.MACSize {
			t.Fatalf("encoding for %v is %d bytes", s.To, len(s.Encoded))
		}
		for _, to := range c.ids[1:] {
			if got := c.engines[to].authenticCommit(want); got != (to == s.To) {
				t.Errorf("tag for %v: accepted by %v = %v", s.To, to, got)
			}
		}
	}
}

// TestEngineReceiveDropsBadCommits drives Engine.Receive, the unverified
// path: every Commit of badCommits leaves the receiver's log untouched and
// each one that reaches the tag check counts as a MAC reject, while the
// genuine Commit is recorded.
func TestEngineReceiveDropsBadCommits(t *testing.T) {
	kps, reg := testKeys(t, 4)
	byID := make(map[crypto.NodeID]*crypto.KeyPair, len(kps))
	for _, kp := range kps {
		byID[kp.ID] = kp
	}
	cc := &metrics.CryptoCounters{}
	ids := []crypto.NodeID{0, 1, 2, 3}
	e, err := NewEngine(Config{ID: 1, Replicas: ids}, byID[1], reg.Accelerated(nil, true, cc))
	if err != nil {
		t.Fatal(err)
	}
	good := tagCommit(t, byID, 2, 1, Commit{View: 0, Seq: 1, Digest: crypto.Hash([]byte("a")), Replica: 2})

	rejects := uint64(0)
	for name, b := range badCommits(t, byID, good) {
		msg, err := wire.Unmarshal(wire.Marshal(b.c))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e.Receive(b.from, msg)
		if len(e.log) != 0 || len(e.early) != 0 {
			t.Fatalf("%s: engine kept the Commit", name)
		}
		if b.from == b.c.Replica {
			rejects++
		}
		if got := cc.MACRejects.Load(); got != rejects {
			t.Fatalf("%s: %d MAC rejects counted, want %d", name, got, rejects)
		}
	}

	msg, _ := wire.Unmarshal(wire.Marshal(good))
	e.Receive(2, msg)
	if inst := e.log[1]; inst == nil || inst.commits[2] == nil {
		t.Fatal("engine dropped a genuine Commit")
	}
	if cc.MACRejects.Load() != rejects {
		t.Fatal("genuine Commit counted as a MAC reject")
	}
}

// TestByzantineCommitEquivocation: a Byzantine replica sends each peer a
// Commit for a different digest, each correctly tagged. No replica can tell,
// since Commits are never relayed; the honest 2f+1 still commit the same
// requests and every replica delivers the same sequence.
func TestByzantineCommitEquivocation(t *testing.T) {
	c := newCluster(t, 4, nil)
	const byz = crypto.NodeID(3)
	rewritten := make(map[*byte]bool)
	c.filter = func(p packet) bool {
		if p.from != byz || rewritten[&p.data[0]] {
			return true
		}
		msg, err := wire.Unmarshal(p.data)
		if err != nil {
			return true
		}
		cm, ok := msg.(*Commit)
		if !ok {
			return true
		}
		lie := *cm
		if p.to != 0 {
			lie.Digest = crypto.Hash([]byte{byte(p.to), byte(cm.Seq)})
		}
		data := wire.Marshal(tagCommit(c.t, c.kps, byz, p.to, lie))
		rewritten[&data[0]] = true
		c.queue = append(c.queue, packet{from: byz, to: p.to, data: data})
		return false
	}
	var payloads []string
	for i := 0; i < 12; i++ {
		payload := string(rune('a' + i))
		payloads = append(payloads, payload)
		c.propose(0, payload)
		c.run()
	}
	if len(rewritten) == 0 {
		t.Fatal("the Byzantine replica sent no Commit")
	}
	c.assertAllDelivered(payloads...)
	c.assertAgreement()
	for _, id := range c.ids {
		if len(c.stable[id]) == 0 || c.stable[id][0].StateDigest != c.stable[0][0].StateDigest {
			t.Fatalf("replica %v stable checkpoints %v differ from r0's", id, c.stable[id])
		}
	}
}
