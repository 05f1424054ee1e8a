package pbft

import (
	"encoding/binary"
	"testing"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

// cluster is a deterministic in-memory test harness: engines exchange
// messages through an explicit queue (marshalled and unmarshalled through
// the wire codec for realism), with an optional filter to drop or observe
// traffic. No goroutines, no timers — full control over schedules.
type cluster struct {
	t       *testing.T
	ids     []crypto.NodeID
	kps     map[crypto.NodeID]*crypto.KeyPair
	reg     *crypto.Registry
	engines map[crypto.NodeID]*Engine

	queue []packet
	// filter, when set, returns false to drop a packet.
	filter func(p packet) bool

	delivered    map[crypto.NodeID][]DeliverAction
	stable       map[crypto.NodeID][]CheckpointProof
	newPrimaries map[crypto.NodeID][]NewPrimaryAction
	transfers    map[crypto.NodeID][]StateTransferNeededAction
	viewTimers   map[crypto.NodeID]*StartViewTimerAction

	// digestFn computes the per-replica checkpoint digest; defaults to a
	// deterministic function of seq so all replicas agree.
	digestFn map[crypto.NodeID]func(seq uint64) crypto.Digest
}

type packet struct {
	from, to crypto.NodeID
	data     []byte
}

func newCluster(t *testing.T, n int, cfgTweak func(*Config)) *cluster {
	t.Helper()
	c := &cluster{
		t:            t,
		kps:          make(map[crypto.NodeID]*crypto.KeyPair, n),
		engines:      make(map[crypto.NodeID]*Engine, n),
		delivered:    make(map[crypto.NodeID][]DeliverAction),
		stable:       make(map[crypto.NodeID][]CheckpointProof),
		newPrimaries: make(map[crypto.NodeID][]NewPrimaryAction),
		transfers:    make(map[crypto.NodeID][]StateTransferNeededAction),
		viewTimers:   make(map[crypto.NodeID]*StartViewTimerAction),
		digestFn:     make(map[crypto.NodeID]func(uint64) crypto.Digest),
	}
	var pairs []*crypto.KeyPair
	for i := 0; i < n; i++ {
		id := crypto.NodeID(i)
		c.ids = append(c.ids, id)
		kp := crypto.MustGenerateKeyPair(id)
		c.kps[id] = kp
		pairs = append(pairs, kp)
	}
	c.reg = crypto.NewRegistry(pairs...)
	for _, id := range c.ids {
		cfg := Config{ID: id, Replicas: c.ids}
		if cfgTweak != nil {
			cfgTweak(&cfg)
		}
		engine, err := NewEngine(cfg, c.kps[id], c.reg)
		if err != nil {
			t.Fatalf("NewEngine(%v): %v", id, err)
		}
		c.engines[id] = engine
		c.handle(id, engine.Start())
	}
	return c
}

// defaultDigest gives every replica the same state digest for seq.
func defaultDigest(seq uint64) crypto.Digest {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	return crypto.Hash(b[:])
}

// handle converts one engine's actions into queued packets and recorded
// callbacks, recursing for checkpoint digests like the Runner does.
func (c *cluster) handle(id crypto.NodeID, actions []Action) {
	for _, a := range actions {
		switch act := a.(type) {
		case SendAction:
			c.queue = append(c.queue, packet{from: id, to: act.To, data: wire.Marshal(act.Msg)})
		case BroadcastAction:
			if act.PerPeer != nil {
				for _, s := range act.PerPeer {
					c.queue = append(c.queue, packet{from: id, to: s.To, data: s.Encoded})
				}
				continue
			}
			data := wire.Marshal(act.Msg)
			for _, to := range c.ids {
				if to != id {
					c.queue = append(c.queue, packet{from: id, to: to, data: data})
				}
			}
		case DeliverAction:
			c.delivered[id] = append(c.delivered[id], act)
		case CheckpointNeededAction:
			fn := c.digestFn[id]
			if fn == nil {
				fn = defaultDigest
			}
			c.handle(id, c.engines[id].Checkpoint(act.Seq, fn(act.Seq)))
		case StableCheckpointAction:
			c.stable[id] = append(c.stable[id], act.Proof)
		case NewPrimaryAction:
			c.newPrimaries[id] = append(c.newPrimaries[id], act)
		case StartViewTimerAction:
			armed := act
			c.viewTimers[id] = &armed
		case StopViewTimerAction:
			c.viewTimers[id] = nil
		case StateTransferNeededAction:
			c.transfers[id] = append(c.transfers[id], act)
		}
	}
}

// run drains the message queue to quiescence.
func (c *cluster) run() {
	for len(c.queue) > 0 {
		p := c.queue[0]
		c.queue = c.queue[1:]
		if c.filter != nil && !c.filter(p) {
			continue
		}
		msg, err := wire.Unmarshal(p.data)
		if err != nil {
			c.t.Fatalf("unmarshal packet %v->%v: %v", p.from, p.to, err)
		}
		c.handle(p.to, c.engines[p.to].Receive(p.from, msg))
	}
}

// propose submits a signed request via the primary-co-located layer.
func (c *cluster) propose(onNode crypto.NodeID, payload string) Request {
	req := Request{Payload: []byte(payload)}
	SignRequest(&req, c.kps[onNode])
	c.handle(onNode, c.engines[onNode].Propose(req))
	return req
}

// suspectAll makes every listed replica suspect the current primary.
func (c *cluster) suspect(ids ...crypto.NodeID) {
	for _, id := range ids {
		c.handle(id, c.engines[id].Suspect(c.engines[id].Primary()))
	}
}

// fireViewTimer triggers the armed view-change timer on a replica.
func (c *cluster) fireViewTimer(id crypto.NodeID) {
	armed := c.viewTimers[id]
	if armed == nil {
		c.t.Fatalf("no view timer armed on %v", id)
	}
	c.viewTimers[id] = nil
	c.handle(id, c.engines[id].OnViewTimer(armed.View))
}

// assertAllDelivered checks that every replica delivered exactly the given
// payloads in order.
func (c *cluster) assertAllDelivered(payloads ...string) {
	c.t.Helper()
	for _, id := range c.ids {
		got := c.delivered[id]
		if len(got) != len(payloads) {
			c.t.Fatalf("replica %v delivered %d requests, want %d", id, len(got), len(payloads))
		}
		for i, want := range payloads {
			if string(got[i].Req.Payload) != want {
				c.t.Errorf("replica %v delivery %d = %q, want %q", id, i, got[i].Req.Payload, want)
			}
		}
	}
}

// assertAgreement verifies the safety invariant: no two replicas delivered
// different requests for the same sequence number.
func (c *cluster) assertAgreement() {
	c.t.Helper()
	bySeq := make(map[uint64]crypto.Digest)
	owner := make(map[uint64]crypto.NodeID)
	for _, id := range c.ids {
		for _, d := range c.delivered[id] {
			digest := d.Req.Digest()
			if prev, ok := bySeq[d.Seq]; ok {
				if prev != digest {
					c.t.Fatalf("SAFETY VIOLATION: seq %d delivered as %s on %v but %s on %v",
						d.Seq, prev.Short(), owner[d.Seq], digest.Short(), id)
				}
			} else {
				bySeq[d.Seq] = digest
				owner[d.Seq] = id
			}
		}
	}
}
