package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
)

// LinkConfig describes one directed link in the simulated network.
type LinkConfig struct {
	// Latency is the base one-way delivery delay.
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// DropRate is the probability in [0, 1] that a message is lost.
	DropRate float64
	// DelayRate is the probability that a message is held back for an extra
	// uniform random duration in (0, MaxDelay].
	DelayRate float64
	// MaxDelay bounds held-back messages; 50ms when zero.
	MaxDelay time.Duration
	// DuplicateRate is the probability that a message arrives twice (the
	// copy without any DelayRate hold).
	DuplicateRate float64
	// Partitioned drops every message on the link.
	Partitioned bool
}

// defaultMaxDelay bounds DelayRate holds on links that set no MaxDelay.
const defaultMaxDelay = 50 * time.Millisecond

// FaultStats counts the faults a Network's links injected.
type FaultStats struct {
	Dropped     uint64
	Delayed     uint64
	Duplicated  uint64
	Partitioned uint64
}

// NetworkOption configures a simulated Network.
type NetworkOption interface {
	apply(*Network)
}

type networkOptionFunc func(*Network)

func (f networkOptionFunc) apply(n *Network) { f(n) }

// WithDefaultLink sets the link configuration applied to every pair of nodes
// that has no explicit override.
func WithDefaultLink(cfg LinkConfig) NetworkOption {
	return networkOptionFunc(func(n *Network) { n.defaultLink = cfg })
}

// WithSeed makes jitter and fault decisions reproducible.
func WithSeed(seed int64) NetworkOption {
	return networkOptionFunc(func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) })
}

// WithInboxSize sets the per-endpoint inbox capacity (the in-process
// equivalent of the TCP transport's SendQueue knob). Messages arriving at a
// full inbox are dropped, like frames on a saturated link.
func WithInboxSize(size int) NetworkOption {
	return networkOptionFunc(func(n *Network) {
		if size > 0 {
			n.inboxSize = size
		}
	})
}

// Network is an in-process message network simulating the train's Ethernet.
// It delivers messages between Endpoints with configurable per-link latency,
// jitter, loss, delay, duplication and partitions (the §III-D fault model,
// rolled per destination so a broadcast faults each peer independently),
// and accounts bytes per node for the network-utilization measurements of
// Fig 6.
type Network struct {
	mu           sync.Mutex
	endpoints    map[crypto.NodeID]*Endpoint
	links        map[[2]crypto.NodeID]LinkConfig
	defaultLink  LinkConfig
	interceptors map[crypto.NodeID]Interceptor
	rng          *rand.Rand
	inboxSize    int
	closed       bool
	faults       FaultStats
}

// Interceptor inspects one outbound message and can delay or drop it. Used
// by the evaluation harness to model Byzantine timing behaviour, e.g. a
// primary delaying its preprepares (Fig 9).
type Interceptor func(to crypto.NodeID, data []byte) (delay time.Duration, drop bool)

// NewNetwork creates an empty simulated network.
func NewNetwork(opts ...NetworkOption) *Network {
	n := &Network{
		endpoints:    make(map[crypto.NodeID]*Endpoint),
		links:        make(map[[2]crypto.NodeID]LinkConfig),
		interceptors: make(map[crypto.NodeID]Interceptor),
		rng:          rand.New(rand.NewSource(1)),
		inboxSize:    4096,
	}
	for _, o := range opts {
		o.apply(n)
	}
	return n
}

// Endpoint returns (creating if necessary) the endpoint for id.
func (n *Network) Endpoint(id crypto.NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[id]; ok {
		return ep
	}
	ep := &Endpoint{
		net:    n,
		id:     id,
		inbox:  make(chan envelope, n.inboxSize),
		closed: make(chan struct{}),
	}
	go ep.dispatch()
	n.endpoints[id] = ep
	return ep
}

// SetLink overrides the configuration of the directed link a→b.
func (n *Network) SetLink(a, b crypto.NodeID, cfg LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]crypto.NodeID{a, b}] = cfg
}

// Partition severs both directions between a and b.
func (n *Network) Partition(a, b crypto.NodeID) {
	n.setPartitioned(a, b, true)
}

// Heal restores both directions between a and b.
func (n *Network) Heal(a, b crypto.NodeID) {
	n.setPartitioned(a, b, false)
}

// Isolate severs every link to and from id, simulating a crashed or
// disconnected node.
func (n *Network) Isolate(id crypto.NodeID) {
	n.mu.Lock()
	ids := make([]crypto.NodeID, 0, len(n.endpoints))
	for other := range n.endpoints {
		if other != id {
			ids = append(ids, other)
		}
	}
	n.mu.Unlock()
	for _, other := range ids {
		n.Partition(id, other)
	}
}

// Rejoin restores every link to and from id.
func (n *Network) Rejoin(id crypto.NodeID) {
	n.mu.Lock()
	ids := make([]crypto.NodeID, 0, len(n.endpoints))
	for other := range n.endpoints {
		if other != id {
			ids = append(ids, other)
		}
	}
	n.mu.Unlock()
	for _, other := range ids {
		n.Heal(id, other)
	}
}

func (n *Network) setPartitioned(a, b crypto.NodeID, v bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, key := range [][2]crypto.NodeID{{a, b}, {b, a}} {
		cfg, ok := n.links[key]
		if !ok {
			cfg = n.defaultLink
		}
		cfg.Partitioned = v
		n.links[key] = cfg
	}
}

// Remove closes and forgets the endpoint for id, so a later Endpoint(id)
// call mints a fresh attachment — the simulated equivalent of a crashed
// process releasing its network interface. Link configurations (including
// partitions) survive, as switch state would.
func (n *Network) Remove(id crypto.NodeID) {
	n.mu.Lock()
	ep := n.endpoints[id]
	delete(n.endpoints, id)
	n.mu.Unlock()
	if ep != nil {
		_ = ep.Close()
	}
}

// Close shuts down all endpoints.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		// Endpoint.Close only touches endpoint state.
		_ = ep.Close()
	}
	return nil
}

// linkFor returns the effective config of the directed link a→b.
func (n *Network) linkFor(a, b crypto.NodeID) LinkConfig {
	if cfg, ok := n.links[[2]crypto.NodeID{a, b}]; ok {
		return cfg
	}
	return n.defaultLink
}

// FaultStats returns the faults the links have injected so far.
func (n *Network) FaultStats() FaultStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults
}

// SetInterceptor installs (or, with nil, removes) an outbound interceptor
// for messages sent by id.
func (n *Network) SetInterceptor(id crypto.NodeID, f Interceptor) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f == nil {
		delete(n.interceptors, id)
		return
	}
	n.interceptors[id] = f
}

// deliver routes one message. Caller must not hold n.mu.
func (n *Network) deliver(from, to crypto.NodeID, data []byte) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	dst, ok := n.endpoints[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrUnknownPeer, to)
	}
	cfg := n.linkFor(from, to)
	if cfg.Partitioned {
		n.faults.Partitioned++
		n.mu.Unlock()
		return nil // silently lost, like a real partitioned link
	}
	if cfg.DropRate > 0 && n.rng.Float64() < cfg.DropRate {
		n.faults.Dropped++
		n.mu.Unlock()
		return nil // silently lost, like a real lossy link
	}
	delay := cfg.Latency
	if cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	dup := cfg.DuplicateRate > 0 && n.rng.Float64() < cfg.DuplicateRate
	if dup {
		n.faults.Duplicated++
	}
	var hold time.Duration
	if cfg.DelayRate > 0 && n.rng.Float64() < cfg.DelayRate {
		n.faults.Delayed++
		bound := cfg.MaxDelay
		if bound <= 0 {
			bound = defaultMaxDelay
		}
		hold = time.Duration(1 + n.rng.Int63n(int64(bound)))
	}
	interceptor := n.interceptors[from]
	n.mu.Unlock()

	if interceptor != nil {
		extra, drop := interceptor(to, data)
		if drop {
			return nil
		}
		delay += extra
	}

	// Copy so the sender may reuse its buffer immediately.
	msg := make([]byte, len(data))
	copy(msg, data)
	env := envelope{from: from, data: msg}
	dst.enqueueAfter(env, delay+hold)
	if dup {
		dst.enqueueAfter(env, delay)
	}
	return nil
}

type envelope struct {
	from crypto.NodeID
	data []byte
}

// Endpoint is one node's attachment to a simulated Network.
type Endpoint struct {
	net *Network
	id  crypto.NodeID

	mu      sync.Mutex
	handler Handler

	inbox     chan envelope
	closed    chan struct{}
	closeOnce sync.Once

	counters metrics.Counters
	netstats metrics.NetCounters
}

var _ Transport = (*Endpoint)(nil)

// LocalID implements Transport.
func (e *Endpoint) LocalID() crypto.NodeID { return e.id }

// SetHandler implements Transport.
func (e *Endpoint) SetHandler(h Handler) {
	e.mu.Lock()
	e.handler = h
	e.mu.Unlock()
}

// Counters exposes this endpoint's traffic counters.
func (e *Endpoint) Counters() *metrics.Counters { return &e.counters }

// NetCounters exposes the endpoint's queue counters (inbox drops), the
// in-process analogue of TCP.NetCounters.
func (e *Endpoint) NetCounters() *metrics.NetCounters { return &e.netstats }

// Send implements Transport. Like TCP's, it is a non-blocking enqueue: the
// simulated link delivers (or drops) asynchronously and never blocks the
// caller on the receiver.
func (e *Endpoint) Send(to crypto.NodeID, data []byte) error {
	select {
	case <-e.closed:
		return ErrClosed
	default:
	}
	e.counters.AddSent(len(data))
	return e.net.deliver(e.id, to, data)
}

// Broadcast implements Transport. Per the paper's model, broadcast is a
// point-to-point send to every peer (no network-level multicast on the
// train Ethernet).
func (e *Endpoint) Broadcast(data []byte) error {
	e.net.mu.Lock()
	peers := make([]crypto.NodeID, 0, len(e.net.endpoints))
	for id := range e.net.endpoints {
		if id != e.id {
			peers = append(peers, id)
		}
	}
	e.net.mu.Unlock()
	var firstErr error
	for _, id := range peers {
		if err := e.Send(id, data); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close implements Transport.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() { close(e.closed) })
	return nil
}

// enqueueAfter delivers env to the inbox once d has passed.
func (e *Endpoint) enqueueAfter(env envelope, d time.Duration) {
	if d <= 0 {
		e.enqueue(env)
		return
	}
	time.AfterFunc(d, func() { e.enqueue(env) })
}

func (e *Endpoint) enqueue(env envelope) {
	select {
	case <-e.closed:
	case e.inbox <- env:
		e.netstats.Enqueued()
	default:
		// Inbox full: drop, as a saturated real link would. The paper
		// observes exactly this for the baseline at 32 ms bus cycles
		// ("the baseline cannot keep up ... requests are dropped").
		e.netstats.AddDrop()
	}
}

// dispatch delivers inbound messages to the handler, sequentially.
func (e *Endpoint) dispatch() {
	for {
		select {
		case <-e.closed:
			return
		case env := <-e.inbox:
			e.netstats.Dequeued(1)
			e.counters.AddReceived(len(env.data))
			e.mu.Lock()
			h := e.handler
			e.mu.Unlock()
			if h != nil {
				h(env.from, env.data)
			}
		}
	}
}
