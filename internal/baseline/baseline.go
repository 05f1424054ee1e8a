// Package baseline implements the paper's comparison system (§V-A
// "Evaluation Setup"): PBFT with traditional client handling. Every node
// runs a client process that reads the bus and forwards each record to the
// primary as its own signed request — no payload filtering — so identical
// input read by n nodes is ordered up to n times. Requests not ordered
// within the client timeout are broadcast to all replicas and escalate to a
// view change, mirroring classic PBFT client behaviour.
//
// The client protocol is a front end of node.Node: the replica below it —
// engine, runner, verify pool, WAL, chain, export server and state transfer
// — is the one ZugChain runs, so Figs 6–7 compare the protocols and nothing
// else.
package baseline

import (
	"sync"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/core"
	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
	"zugchain/internal/node"
	"zugchain/internal/pbft"
	"zugchain/internal/signal"
	"zugchain/internal/transport"
	"zugchain/internal/wire"
)

// Wire tags of the baseline client request channel (range 0x50–0x5f).
const (
	typeClientRequest        wire.Type = 0x50
	clientTagLo, clientTagHi           = 0x50, 0x5f
)

func init() {
	wire.Register(typeClientRequest, func() wire.Message { return new(ClientRequest) })
}

// ClientRequest carries a baseline client's signed request to the primary
// (or, after a client timeout, to all replicas).
type ClientRequest struct {
	Req pbft.Request
}

// WireType implements wire.Message.
func (m *ClientRequest) WireType() wire.Type { return typeClientRequest }

// EncodeWire implements wire.Message.
func (m *ClientRequest) EncodeWire(e *wire.Encoder) {
	e.Bytes(m.Req.Payload)
	e.Uint32(uint32(m.Req.Origin))
	e.Bytes(m.Req.Sig)
}

// DecodeWire implements wire.Message.
func (m *ClientRequest) DecodeWire(d *wire.Decoder) {
	m.Req.Payload = d.BytesCopy()
	m.Req.Origin = crypto.NodeID(d.Uint32())
	m.Req.Sig = d.BytesCopy()
}

// Config holds the client's own settings; the replica's are node.Config.
type Config struct {
	// ClientTimeout is the client's wait before re-broadcasting and
	// suspecting (500 ms in Fig 8).
	ClientTimeout time.Duration
	// SuspectOnFirstTimeout makes the first client timeout suspect the
	// primary directly instead of re-broadcasting first — the paper's
	// Fig 8 baseline uses a single 500 ms view-change timeout.
	SuspectOnFirstTimeout bool
}

// logEverySignal is an empty policy set: every signal of every parsed frame
// is logged, with no change-detection filter.
var logEverySignal = map[signal.Kind]signal.FilterPolicy{}

// New assembles a baseline replica: a node.Node whose front end is this
// package's client protocol. Its FrontEnd's OnBusRecord submits one payload
// as the client's own request.
func New(cfg node.Config, client Config, kp *crypto.KeyPair, reg *crypto.Registry, tr transport.Transport, clk clock.Clock) (*node.Node, error) {
	if client.ClientTimeout <= 0 {
		client.ClientTimeout = 500 * time.Millisecond
	}
	newClient := func(env node.FrontEndEnv) node.FrontEnd {
		c := &clientFront{
			cfg:      client,
			env:      env,
			reqChan:  env.Mux.Channel(clientTagLo, clientTagHi),
			open:     make(map[crypto.Digest]*pendingReq),
			seen:     newBoundedMap[uint64](seenWindow),
			payloads: newBoundedMap[[]byte](payloadWindow),
			latency:  &metrics.Latency{},
			counters: &metrics.Counters{},
			batches:  &metrics.BatchCounters{},
		}
		c.reqChan.SetHandler(c.onClientRequest)
		return c
	}
	return node.NewWithFrontEnd(cfg, kp, reg, tr, clk, newClient, logEverySignal)
}

// clientFront is one replica's client process plus the replica side of the
// client protocol.
type clientFront struct {
	cfg     Config
	env     node.FrontEndEnv
	reqChan transport.Transport

	mu      sync.Mutex
	primary crypto.NodeID
	view    uint64
	closed  bool
	// open tracks this client's in-flight requests by full digest.
	open map[crypto.Digest]*pendingReq
	// seen dedups retransmitted client requests by full digest, as PBFT
	// does on "complete requests including client ids" (§VI): it maps a
	// request to the view this replica proposed it in, or to seenOrdered.
	// Runner.Propose cannot report whether the engine took the request (it
	// is a no-op mid view change), so a proposal only blocks re-proposals
	// within its own view; an ordered request is never proposed again.
	seen *boundedMap[uint64]
	// payloads holds this client's recent bus payloads by payload digest,
	// the PayloadSource proposals by reference are rebuilt from.
	payloads *boundedMap[[]byte]

	latency  *metrics.Latency
	counters *metrics.Counters
	batches  *metrics.BatchCounters // the baseline never batches: stays zero
}

// seenOrdered marks an ordered request in clientFront.seen.
const seenOrdered = ^uint64(0)

// Window sizes of the dedup and payload maps, in requests.
const (
	seenWindow    = 4096
	payloadWindow = 1024
)

type pendingReq struct {
	req       pbft.Request
	submitted time.Time
	timer     *clock.Func
	broadcast bool // already escalated once
}

// Latency exposes request receive-to-decide latency of this client.
func (c *clientFront) Latency() *metrics.Latency { return c.latency }

// Counters exposes client event counters.
func (c *clientFront) Counters() *metrics.Counters { return c.counters }

// Batches exposes batching counters, which the baseline never moves.
func (c *clientFront) Batches() *metrics.BatchCounters { return c.batches }

// OpenRequests reports this client's in-flight requests.
func (c *clientFront) OpenRequests() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.open)
}

// Close stops every client timer.
func (c *clientFront) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, p := range c.open {
		p.timer.Stop()
	}
	c.open = make(map[crypto.Digest]*pendingReq)
}

// OnBusRecord is the baseline client path: every record becomes this
// client's own signed request, forwarded to the primary without any
// payload-level deduplication.
func (c *clientFront) OnBusRecord(_ int, payload []byte) {
	req := pbft.Request{Payload: payload}
	pbft.SignRequest(&req, c.env.Key)
	c.counters.AddSignature()
	payloadDigest := req.PayloadDigest()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	if _, ok := c.payloads.m[payloadDigest]; !ok {
		c.payloads.put(payloadDigest, payload)
	}
	digest := req.Digest()
	p := &pendingReq{req: req, submitted: c.env.Clock.Now()}
	c.armTimerLocked(digest, p)
	c.open[digest] = p
	primary := c.primary
	c.mu.Unlock()

	c.sendRequest(primary, req)
}

func (c *clientFront) armTimerLocked(digest crypto.Digest, p *pendingReq) {
	p.timer = clock.AfterFunc(c.env.Clock, c.cfg.ClientTimeout, func() { c.onClientTimeout(digest) })
}

// onClientTimeout escalates per classic PBFT: first re-broadcast the request
// to all replicas, then suspect the primary. The timer re-arms until the
// request is ordered: a suspicion that does not lead to a view in which the
// request is ordered is repeated, instead of leaving the client waiting for
// good.
func (c *clientFront) onClientTimeout(digest crypto.Digest) {
	c.mu.Lock()
	p, ok := c.open[digest]
	if !ok || c.closed {
		c.mu.Unlock()
		return
	}
	suspect := p.broadcast || c.cfg.SuspectOnFirstTimeout
	p.broadcast = true
	primary := c.primary
	c.mu.Unlock()
	if suspect {
		c.env.BFT.Suspect(primary)
	} else {
		c.broadcastRequest(p.req)
	}
	c.mu.Lock()
	if _, still := c.open[digest]; still && !c.closed {
		c.armTimerLocked(digest, p)
	}
	c.mu.Unlock()
}

// markSeenLocked records in the dedup window that the full request with
// digest d was proposed in view (or ordered, with seenOrdered).
func (c *clientFront) markSeenLocked(d crypto.Digest, view uint64) {
	if c.seen.m[d] != seenOrdered {
		c.seen.put(d, view)
	}
}

// boundedMap is a map that keeps only its newest max keys.
type boundedMap[V any] struct {
	m     map[crypto.Digest]V
	order []crypto.Digest
	max   int
}

func newBoundedMap[V any](max int) *boundedMap[V] {
	return &boundedMap[V]{m: make(map[crypto.Digest]V), max: max}
}

func (b *boundedMap[V]) put(d crypto.Digest, v V) {
	if _, ok := b.m[d]; !ok {
		b.order = append(b.order, d)
	}
	b.m[d] = v
	for len(b.order) > b.max {
		delete(b.m, b.order[0])
		b.order = b.order[1:]
	}
}

// propose submits to the local engine unless the full request was already
// ordered here, or proposed here in the current view.
func (c *clientFront) propose(req pbft.Request) {
	d := req.Digest()
	c.mu.Lock()
	if v, ok := c.seen.m[d]; ok && (v == seenOrdered || v == c.view) {
		c.mu.Unlock()
		return
	}
	c.markSeenLocked(d, c.view)
	c.mu.Unlock()
	c.env.BFT.Propose(req)
}

func (c *clientFront) sendRequest(to crypto.NodeID, req pbft.Request) {
	data := wire.Marshal(&ClientRequest{Req: req})
	c.counters.AddSent(len(data))
	if to == c.env.Config.ID {
		// Client co-located with the primary: hand over directly.
		c.propose(req)
		return
	}
	_ = c.reqChan.Send(to, data)
}

func (c *clientFront) broadcastRequest(req pbft.Request) {
	data := wire.Marshal(&ClientRequest{Req: req})
	c.counters.AddSent(len(data))
	_ = c.reqChan.Broadcast(data)
	// The local replica also counts as a broadcast recipient.
	c.mu.Lock()
	isPrimary := c.primary == c.env.Config.ID
	c.mu.Unlock()
	if isPrimary {
		c.propose(req)
	}
}

// onClientRequest is the replica side: requests from clients are proposed
// if we are the primary, otherwise relayed to it.
func (c *clientFront) onClientRequest(from crypto.NodeID, data []byte) {
	msg, err := wire.Unmarshal(data)
	if err != nil {
		return
	}
	cr, ok := msg.(*ClientRequest)
	if !ok {
		return
	}
	// The signature check runs on the verify pool; the continuation
	// re-reads the primary because it may have changed while the check was
	// queued.
	c.env.Pool.Submit(func() {
		if pbft.VerifyRequest(&cr.Req, c.env.Registry) != nil {
			return
		}
		c.mu.Lock()
		primary := c.primary
		c.mu.Unlock()
		if primary == c.env.Config.ID {
			c.propose(cr.Req)
			return
		}
		if from == cr.Req.Origin {
			// Broadcast from the client itself: relay toward the primary so
			// a censored client cannot be starved.
			_ = c.reqChan.Send(primary, data)
		}
	})
}

// OnDecide logs every decided request — duplicates included, which is
// precisely the baseline's overhead.
func (c *clientFront) OnDecide(seq uint64, req pbft.Request) {
	c.counters.AddRequest()
	digest := req.Digest()
	c.mu.Lock()
	c.markSeenLocked(digest, seenOrdered)
	if p, ok := c.open[digest]; ok {
		p.timer.Stop()
		delete(c.open, digest)
		c.latency.Record(c.env.Clock.Now().Sub(p.submitted))
	}
	c.mu.Unlock()
	c.env.Recorder.Log(seq, req.Origin, req.Payload, req.Sig)
}

// RestoreWindow takes records the chain already holds — recovered from
// disk, or installed by a state transfer after this replica jumped to a
// stable checkpoint. This client's open requests for the same payloads are
// marked ordered and closed: a client whose request was ordered while its
// replica lagged must not retransmit it and then suspect the primary over
// it. Entries name payloads, not origins, so a copy read by another client
// settles this client's too; the payload is on the chain either way.
func (c *clientFront) RestoreWindow(entries []core.WindowEntry) {
	settled := make(map[crypto.Digest]bool, len(entries))
	for _, e := range entries {
		settled[e.Digest] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for d, p := range c.open {
		if settled[p.req.PayloadDigest()] {
			p.timer.Stop()
			delete(c.open, d)
			c.markSeenLocked(d, seenOrdered)
		}
	}
}

// WindowSnapshot has nothing to persist: the baseline filters no payloads,
// and its retransmission window starts empty after a restart.
func (c *clientFront) WindowSnapshot(dst []core.WindowEntry, _ uint64) []core.WindowEntry { return dst }

// OnPrePrepared is a no-op: the client's timer runs until the decide.
func (c *clientFront) OnPrePrepared(crypto.Digest) {}

// OnNewPrimary gives each open request the new primary a full client
// timeout before it is broadcast again.
func (c *clientFront) OnNewPrimary(view uint64, primary crypto.NodeID) {
	c.mu.Lock()
	c.primary = primary
	c.view = view
	open := make([]pbft.Request, 0, len(c.open))
	for _, p := range c.open {
		p.broadcast = false
		open = append(open, p.req)
	}
	isPrimary := primary == c.env.Config.ID
	c.mu.Unlock()
	// Clients retransmit their open requests to the new primary.
	for _, req := range open {
		if isPrimary {
			c.propose(req)
		} else {
			_ = c.reqChan.Send(primary, wire.Marshal(&ClientRequest{Req: req}))
		}
	}
}

// Payload serves proposals by reference from this client's recent bus
// payloads: every baseline client reads the same bus, so backups rebuild the
// primary's proposals exactly as ZugChain replicas do.
func (c *clientFront) Payload(d crypto.Digest) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload, ok := c.payloads.m[d]
	return payload, ok
}
