package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
)

// Frame format on a TCP connection:
//
//	hello (once, from dialer):  uint32 BE sender ID
//	message (repeated):         uint32 BE length | payload
//
// maxFrameSize guards against hostile length prefixes.
const maxFrameSize = 64 << 20

// frameHeaderSize is the per-message wire overhead (the length prefix).
const frameHeaderSize = 4

// Tunables of the asynchronous outbound pipeline.
const (
	// DefaultSendQueue is the default per-peer outbound queue capacity.
	DefaultSendQueue = 1024
	// DefaultDialTimeout bounds one outbound connection attempt.
	DefaultDialTimeout = 2 * time.Second

	// redialBackoffMin/Max cap the background reconnect loop's exponential
	// backoff between failed dial attempts.
	redialBackoffMin = 20 * time.Millisecond
	redialBackoffMax = 2 * time.Second

	// maxCoalesceFrames and maxCoalesceBytes bound one vectored write: the
	// writer never merges more than this many queued frames (or bytes) into
	// a single net.Buffers flush, keeping per-peer memory and iovec counts
	// bounded under sustained backlog.
	maxCoalesceFrames = 64
	maxCoalesceBytes  = 1 << 20

	// readBufSize sizes the pooled bufio.Reader in front of each
	// connection, so the frame header and small payloads cost one read
	// syscall instead of two, and every frame up to this size is handed
	// to the handler in place, straight out of the reader's buffer.
	readBufSize = 64 << 10
)

// framePool recycles outbound frame buffers (length prefix + payload in one
// contiguous allocation). Send paths take a buffer, writers return it after
// the flush, so a steady-state connection allocates nothing per message.
var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// newFrame encodes data as one wire frame into a pooled buffer.
func newFrame(data []byte) *[]byte {
	bp := framePool.Get().(*[]byte)
	b := (*bp)[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	b = append(b, data...)
	*bp = b
	return bp
}

func releaseFrame(bp *[]byte) {
	// Don't let one huge frame pin its storage in the pool forever.
	if cap(*bp) > maxCoalesceBytes {
		return
	}
	framePool.Put(bp)
}

// readerPool recycles the bufio.Reader placed in front of every connection.
var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, readBufSize) },
}

// TCP is a Transport over real TCP connections with an asynchronous per-peer
// outbound pipeline: Send and Broadcast enqueue onto a bounded per-peer
// queue and return immediately; a dedicated writer goroutine per peer drains
// the queue, coalescing all immediately available frames into one vectored
// write (net.Buffers → writev). Connections are dialed and redialed by the
// writer with capped exponential backoff, so a dead or slow peer can never
// stall a caller — queue overflow drops the oldest frames (PBFT retransmits
// or view-changes around transport loss). Inbound connections are accepted
// on the configured listen address, identified by their hello frame, and
// adopted as the peer's write path when no dialed connection exists.
type TCP struct {
	id crypto.NodeID

	listener net.Listener

	// DialTimeout bounds each outbound connection attempt.
	DialTimeout time.Duration
	// SendQueue is the per-peer outbound queue capacity; when full, the
	// oldest queued frame is dropped. Zero selects DefaultSendQueue. Set
	// before the first Send.
	SendQueue int

	mu      sync.Mutex
	peers   map[crypto.NodeID]string
	handler Handler
	out     map[crypto.NodeID]*tcpPeer
	live    map[net.Conn]struct{} // every open conn, inbound and dialed
	closed  bool

	closing chan struct{}
	wg      sync.WaitGroup

	net metrics.NetCounters
}

var _ Transport = (*TCP)(nil)

// NewTCP creates a TCP transport for id listening on listenAddr. peers maps
// every other node ID to its dialable address. Pass an empty listenAddr to
// create a client-only transport (used by data centers that only dial).
func NewTCP(id crypto.NodeID, listenAddr string, peers map[crypto.NodeID]string) (*TCP, error) {
	t := &TCP{
		id:          id,
		peers:       peers,
		out:         make(map[crypto.NodeID]*tcpPeer),
		live:        make(map[net.Conn]struct{}),
		closing:     make(chan struct{}),
		DialTimeout: DefaultDialTimeout,
	}
	if listenAddr != "" {
		ln, err := net.Listen("tcp", listenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
		}
		t.listener = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// LocalID implements Transport.
func (t *TCP) LocalID() crypto.NodeID { return t.id }

// SetPeers installs the peer address map. Useful when all listeners must be
// bound (port 0) before any address is known. Call before any Send.
func (t *TCP) SetPeers(peers map[crypto.NodeID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers = peers
}

// Addr returns the bound listen address, useful when listening on port 0.
func (t *TCP) Addr() string {
	if t.listener == nil {
		return ""
	}
	return t.listener.Addr().String()
}

// SetHandler implements Transport.
func (t *TCP) SetHandler(h Handler) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// NetCounters exposes the outbound pipeline's queue/coalescing/redial
// counters.
func (t *TCP) NetCounters() *metrics.NetCounters { return &t.net }

// Send implements Transport: a non-blocking enqueue onto the peer's
// outbound queue. A nil error means the frame was queued, not delivered;
// delivery is best-effort (ErrUnknownPeer is returned only when no address
// and no live connection for the peer exists).
func (t *TCP) Send(to crypto.NodeID, data []byte) error {
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	p.enqueue(newFrame(data))
	return nil
}

// Broadcast implements Transport: one non-blocking enqueue per known peer.
// A slow, dead, or unreachable peer only affects its own queue; the caller
// never waits on dials or writes.
func (t *TCP) Broadcast(data []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	ids := make([]crypto.NodeID, 0, len(t.peers))
	for id := range t.peers {
		if id != t.id {
			ids = append(ids, id)
		}
	}
	t.mu.Unlock()
	var firstErr error
	for _, id := range ids {
		if err := t.Send(id, data); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close implements Transport. It closes every live connection — dialed and
// inbound, including inbound duplicates that never became a peer's write
// path — stops all writer/reader goroutines, and waits for them.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.live))
	for c := range t.live {
		conns = append(conns, c)
	}
	t.live = make(map[net.Conn]struct{})
	t.mu.Unlock()

	close(t.closing)
	if t.listener != nil {
		_ = t.listener.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	return nil
}

// peer returns (creating if necessary) the outbound pipeline for id. A peer
// is created when it has a dialable address or an adopted inbound
// connection; otherwise ErrUnknownPeer.
func (t *TCP) peer(id crypto.NodeID) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	if p, ok := t.out[id]; ok {
		return p, nil
	}
	if _, ok := t.peers[id]; !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownPeer, id)
	}
	return t.newPeerLocked(id), nil
}

// newPeerLocked creates the peer pipeline and starts its writer. Caller
// holds t.mu and has checked t.closed.
func (t *TCP) newPeerLocked(id crypto.NodeID) *tcpPeer {
	q := t.SendQueue
	if q <= 0 {
		q = DefaultSendQueue
	}
	p := &tcpPeer{
		t:      t,
		id:     id,
		queue:  make(chan *[]byte, q),
		connCh: make(chan struct{}, 1),
	}
	t.out[id] = p
	t.wg.Add(1)
	go p.writeLoop()
	return p
}

// peerAddr returns the dialable address of id, if known.
func (t *TCP) peerAddr(id crypto.NodeID) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	addr, ok := t.peers[id]
	return addr, ok
}

// track registers a conn for shutdown. It reports false (and closes the
// conn) when the transport is already closed.
func (t *TCP) track(c net.Conn) bool {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = c.Close()
		return false
	}
	t.live[c] = struct{}{}
	t.mu.Unlock()
	return true
}

// untrack closes c and forgets it.
func (t *TCP) untrack(c net.Conn) {
	t.mu.Lock()
	delete(t.live, c)
	t.mu.Unlock()
	_ = c.Close()
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !t.track(c) {
			return
		}
		t.wg.Add(1)
		go t.handleInbound(c)
	}
}

// handleInbound reads the hello frame, offers the connection to the peer's
// writer (data centers dial in and expect replies on the same connection),
// and reads frames until the connection dies. The connection is tracked in
// t.live from accept time, so Close reaches it even while it is a duplicate
// that never became a write path.
func (t *TCP) handleInbound(c net.Conn) {
	defer t.wg.Done()
	var hello [4]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		t.untrack(c)
		return
	}
	from := crypto.NodeID(binary.BigEndian.Uint32(hello[:]))

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = c.Close()
		return
	}
	p, ok := t.out[from]
	if !ok {
		p = t.newPeerLocked(from)
	}
	t.mu.Unlock()
	p.offerConn(c)

	t.readLoop(p, c)
}

// readLoop delivers inbound frames to the handler until the connection
// fails, then detaches it from the peer's write path. The bufio.Reader is
// pooled, and a frame that fits it is lent to the handler in place: it is
// discarded from the reader only once the handler returns (the Handler
// contract), so a steady-state connection allocates nothing per frame.
func (t *TCP) readLoop(p *tcpPeer, c net.Conn) {
	defer func() {
		p.clearConn(c)
		t.untrack(c)
	}()
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(c)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()
	for {
		data, lent, err := readFrame(br)
		if err != nil {
			return
		}
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if h != nil {
			h(p.id, data)
		}
		// Discarding bytes already buffered cannot fail.
		_, _ = br.Discard(lent)
	}
}

// tcpPeer is one peer's outbound pipeline: a bounded queue of encoded
// frames drained by a dedicated writer goroutine over the peer's current
// connection (dialed by the writer, or an adopted inbound one).
type tcpPeer struct {
	t  *TCP
	id crypto.NodeID

	queue  chan *[]byte
	connCh chan struct{} // pings the writer when a conn is installed

	mu   sync.Mutex
	conn net.Conn // current write path, nil while disconnected
}

// enqueue adds one frame, evicting the oldest queued frames when full
// (drop-oldest: under overload the queue always holds the freshest
// protocol state, which is what PBFT progress needs).
func (p *tcpPeer) enqueue(f *[]byte) {
	for {
		select {
		case p.queue <- f:
			p.t.net.Enqueued()
			return
		default:
		}
		select {
		case old := <-p.queue:
			p.t.net.Dequeued(1)
			p.t.net.AddDrop()
			releaseFrame(old)
		default:
			// The writer drained the queue between our two selects; retry.
		}
	}
}

// offerConn installs c as the write path if the peer has none; otherwise c
// stays read-only (the duplicate-connection case: both sides dialed).
func (p *tcpPeer) offerConn(c net.Conn) {
	p.mu.Lock()
	if p.conn == nil {
		p.conn = c
	}
	p.mu.Unlock()
	select {
	case p.connCh <- struct{}{}:
	default:
	}
}

// clearConn detaches c if it is the current write path (a reader noticed the
// connection die before the writer did).
func (p *tcpPeer) clearConn(c net.Conn) {
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
	}
	p.mu.Unlock()
}

func (p *tcpPeer) currentConn() net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// writeLoop drains the queue over whatever connection is current, dialing
// in the background with capped exponential backoff when there is none.
func (p *tcpPeer) writeLoop() {
	defer p.t.wg.Done()
	var batch []*[]byte
	var bufs net.Buffers
	for {
		// Block for the first frame of the next flush.
		var first *[]byte
		select {
		case <-p.t.closing:
			return
		case first = <-p.queue:
		}

		// Connect before draining: while the peer is unreachable the other
		// frames stay in the queue, where drop-oldest bounds them.
		batch = append(batch[:0], first)
		c := p.ensureConn()
		if c == nil {
			// Transport closing: the frame is lost (at-most-once).
			p.release(batch)
			return
		}
		// Coalesce everything already queued into one syscall.
		batch = p.drain(batch, len(*first))

		bufs = bufs[:0]
		for _, f := range batch {
			bufs = append(bufs, *f)
		}
		// WriteTo consumes its receiver, so hand it a copy of the slice
		// header and keep bufs' backing array for the next flush.
		nb := bufs
		_, err := nb.WriteTo(c)
		if err == nil {
			p.t.net.AddWrite(len(batch))
		} else {
			// Wire loss, not overflow: PBFT's retransmit/view-change
			// machinery recovers. Detach the conn; next loop redials.
			p.t.net.AddWriteError(len(batch))
			p.clearConn(c)
			p.t.untrack(c)
		}
		p.release(batch)
	}
}

// drain moves every immediately available frame into batch, up to the
// coalescing caps.
func (p *tcpPeer) drain(batch []*[]byte, size int) []*[]byte {
	for len(batch) < maxCoalesceFrames && size < maxCoalesceBytes {
		select {
		case f := <-p.queue:
			batch = append(batch, f)
			size += len(*f)
		default:
			return batch
		}
	}
	return batch
}

// release returns batch frames to the pool and settles the depth counter.
func (p *tcpPeer) release(batch []*[]byte) {
	p.t.net.Dequeued(len(batch))
	for _, f := range batch {
		releaseFrame(f)
	}
}

// ensureConn returns the current connection, dialing with backoff until one
// exists. For peers with no dialable address it waits for an inbound
// connection to be adopted. Returns nil only when the transport closes.
func (p *tcpPeer) ensureConn() net.Conn {
	backoff := redialBackoffMin
	for attempt := 0; ; attempt++ {
		if c := p.currentConn(); c != nil {
			return c
		}
		select {
		case <-p.t.closing:
			return nil
		default:
		}
		addr, ok := p.t.peerAddr(p.id)
		if !ok {
			// No address: replies ride an inbound connection only.
			select {
			case <-p.t.closing:
				return nil
			case <-p.connCh:
			}
			continue
		}
		if attempt > 0 {
			p.t.net.AddRedial()
		}
		c, err := net.DialTimeout("tcp", addr, p.t.DialTimeout)
		if err == nil {
			var hello [4]byte
			binary.BigEndian.PutUint32(hello[:], uint32(p.t.id))
			if _, err = c.Write(hello[:]); err != nil {
				_ = c.Close()
			}
		}
		if err != nil {
			// Capped exponential backoff; an adopted inbound connection or
			// shutdown cuts the wait short.
			select {
			case <-p.t.closing:
				return nil
			case <-p.connCh:
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > redialBackoffMax {
				backoff = redialBackoffMax
			}
			continue
		}
		if !p.t.track(c) {
			return nil
		}
		// Install as write path unless an inbound conn won the race; the
		// dialed conn still carries replies either way.
		p.mu.Lock()
		if p.conn == nil {
			p.conn = c
		}
		p.mu.Unlock()
		p.t.wg.Add(1)
		go func() {
			defer p.t.wg.Done()
			p.t.readLoop(p, c)
		}()
	}
}

// readFrame reads one length-prefixed frame. A frame that fits br's buffer
// is returned in place, still buffered: data aliases br and stays valid
// until the caller discards the lent bytes, header included. A larger frame
// is read into its own allocation and lent is 0.
func readFrame(br *bufio.Reader) (data []byte, lent int, err error) {
	hdr, err := br.Peek(frameHeaderSize)
	if err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrameSize {
		return nil, 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	if size := frameHeaderSize + int(n); size <= br.Size() {
		frame, err := br.Peek(size)
		if err != nil {
			return nil, 0, err
		}
		// Capped at its own end, so an append cannot reach the next frame.
		return frame[frameHeaderSize:size:size], size, nil
	}
	_, _ = br.Discard(frameHeaderSize) // peeked above, so buffered
	data = make([]byte, n)
	if _, err := io.ReadFull(br, data); err != nil {
		return nil, 0, err
	}
	return data, 0, nil
}
