package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"zugchain/internal/crypto"
)

// newTCPPair starts two TCP transports that know each other's addresses.
func newTCPPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := NewTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.SetPeers(map[crypto.NodeID]string{1: b.Addr()})
	b.SetPeers(map[crypto.NodeID]string{0: a.Addr()})
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func TestTCPSendDeliver(t *testing.T) {
	a, b := newTCPPair(t)
	col := newCollector()
	b.SetHandler(col.handler)

	if err := a.Send(1, []byte("over tcp")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	col.wait(t, 1)
	if got := col.messages(); got[0] != "over tcp" {
		t.Errorf("received %q", got[0])
	}
	if col.from[0] != 0 {
		t.Errorf("from = %v", col.from[0])
	}
}

func TestTCPBidirectionalOnSingleConnection(t *testing.T) {
	a, b := newTCPPair(t)
	colA := newCollector()
	colB := newCollector()
	a.SetHandler(colA.handler)
	b.SetHandler(colB.handler)

	if err := a.Send(1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	colB.wait(t, 1)
	// b replies; it should reuse the inbound connection rather than dial.
	if err := b.Send(0, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	colA.wait(t, 1)
	if got := colA.messages(); got[0] != "pong" {
		t.Errorf("reply = %q", got[0])
	}
}

func TestTCPLargeFrame(t *testing.T) {
	a, b := newTCPPair(t)
	col := newCollector()
	b.SetHandler(col.handler)

	big := bytes.Repeat([]byte{0xa5}, 1<<20) // 1 MiB
	if err := a.Send(1, big); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	if got := col.messages(); len(got[0]) != len(big) {
		t.Errorf("received %d bytes, want %d", len(got[0]), len(big))
	}
}

// TestTCPFramesAroundReadBuffer interleaves frames below, at and above the
// reader's buffer — the sizes lent in place and the ones read into their
// own allocation — and checks that each handler call sees exactly its own
// frame. The handler scribbles over every frame it is lent, so a frame that
// shared bytes with a later one would arrive corrupted.
func TestTCPFramesAroundReadBuffer(t *testing.T) {
	a, b := newTCPPair(t)
	fits := readBufSize - frameHeaderSize
	sizes := []int{0, 1, 300, fits, fits + 1, 3 * readBufSize, 17, fits - 1, 40000, 40000, 2*readBufSize + 5, 1}
	frames := make([][]byte, 0, 3*len(sizes))
	for round := 0; round < 3; round++ {
		for _, n := range sizes {
			f := make([]byte, n)
			for j := range f {
				f[j] = byte(len(frames) + 31*j)
			}
			frames = append(frames, f)
		}
	}

	got := make(chan error, len(frames))
	next := 0
	b.SetHandler(func(from crypto.NodeID, data []byte) {
		want := frames[next]
		next++
		if !bytes.Equal(data, want) {
			got <- fmt.Errorf("frame %d: got %d bytes, want %d bytes of its own pattern", next-1, len(data), len(want))
		} else {
			got <- nil
		}
		for j := range data {
			data[j] = 0xee
		}
	})
	for _, f := range frames {
		if err := a.Send(1, f); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for i := range frames {
		select {
		case err := <-got:
			if err != nil {
				t.Error(err)
			}
		case <-deadline:
			t.Fatalf("timed out after %d of %d frames", i, len(frames))
		}
	}
}

func TestTCPManyMessagesInOrder(t *testing.T) {
	a, b := newTCPPair(t)
	col := newCollector()
	b.SetHandler(col.handler)

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send(1, []byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, n)
	got := col.messages()
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("msg-%03d", i); got[i] != want {
			t.Fatalf("message %d = %q, want %q", i, got[i], want)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Send(7, []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Send = %v, want ErrUnknownPeer", err)
	}
}

// TestTCPSendToDeadPeerNonBlocking is the acceptance check for the
// asynchronous pipeline: sending (and broadcasting) toward an unreachable
// address must return immediately — dials happen on the peer's writer
// goroutine, never on the caller.
func TestTCPSendToDeadPeerNonBlocking(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", map[crypto.NodeID]string{1: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.DialTimeout = 500 * time.Millisecond

	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := a.Send(1, []byte("x")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("100 sends to a dead peer took %v; enqueue must not block on the dial", elapsed)
	}
}

// TestTCPBroadcastWithUnreachablePeer checks that one dead peer does not
// delay a broadcast to the healthy ones, and that the broadcast itself
// returns without waiting out the dial timeout.
func TestTCPBroadcastWithUnreachablePeer(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.DialTimeout = 2 * time.Second
	healthy, err := NewTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	col := newCollector()
	healthy.SetHandler(col.handler)
	a.SetPeers(map[crypto.NodeID]string{
		1: healthy.Addr(),
		2: "127.0.0.1:1", // nothing listens here
	})

	start := time.Now()
	if err := a.Broadcast([]byte("all")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("Broadcast took %v with one unreachable peer", elapsed)
	}
	col.wait(t, 1)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("healthy peer waited %v behind the dead peer's dial", elapsed)
	}
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, b := newTCPPair(t)
	col := newCollector()
	b.SetHandler(col.handler)

	if err := a.Send(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)

	// Restart b on the same address.
	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewTCP(1, addr, map[crypto.NodeID]string{0: a.Addr()})
	if err != nil {
		t.Fatalf("restart listener: %v", err)
	}
	defer b2.Close()
	col2 := newCollector()
	b2.SetHandler(col2.handler)

	// Sends may "succeed" into the dead socket's buffer until the broken
	// connection is detected and dropped, so retry until a message actually
	// arrives at the restarted peer.
	deadline := time.Now().Add(5 * time.Second)
	for col2.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("could not reconnect")
		}
		_ = a.Send(1, []byte("two")) // errors expected while reconnecting
		time.Sleep(10 * time.Millisecond)
	}
	if got := col2.messages(); got[0] != "two" {
		t.Errorf("after reconnect received %q", got[0])
	}
}

func TestTCPBroadcast(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var others []*TCP
	peers := make(map[crypto.NodeID]string)
	cols := make([]*collector, 3)
	for i := 1; i <= 3; i++ {
		p, err := NewTCP(crypto.NodeID(i), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		cols[i-1] = newCollector()
		p.SetHandler(cols[i-1].handler)
		peers[crypto.NodeID(i)] = p.Addr()
		others = append(others, p)
	}
	a.peers = peers

	if err := a.Broadcast([]byte("all")); err != nil {
		t.Fatal(err)
	}
	for i := range others {
		cols[i].wait(t, 1)
	}
}

func TestTCPClosedSend(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
}

// wedgedPeer accepts connections, reads the hello, then never reads again —
// a live TCP endpoint whose kernel receive buffer eventually fills, the
// worst kind of slow consumer.
type wedgedPeer struct {
	ln    net.Listener
	done  chan struct{}
	conns chan net.Conn
}

func newWedgedPeer(t *testing.T) *wedgedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &wedgedPeer{ln: ln, done: make(chan struct{}), conns: make(chan net.Conn, 16)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			var hello [4]byte
			_, _ = io.ReadFull(c, hello[:])
			w.conns <- c // parked: never read again
		}
	}()
	t.Cleanup(w.close)
	return w
}

func (w *wedgedPeer) close() {
	_ = w.ln.Close()
	for {
		select {
		case c := <-w.conns:
			_ = c.Close()
		default:
			return
		}
	}
}

// TestTCPSlowPeerIsolation: a wedged peer (connected, never reading) must
// not delay delivery to healthy peers and must not block Send or Broadcast.
func TestTCPSlowPeerIsolation(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SendQueue = 16 // small queue so the wedged peer overflows quickly
	healthy, err := NewTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	col := newCollector()
	healthy.SetHandler(col.handler)
	wedged := newWedgedPeer(t)
	a.SetPeers(map[crypto.NodeID]string{
		1: healthy.Addr(),
		2: wedged.ln.Addr().String(),
	})

	// Big payloads fill the wedged peer's socket buffers fast; its writer
	// then blocks in write(2) while its queue absorbs and drops overflow.
	// The enqueue loop outruns both writers, so some frames are dropped for
	// the healthy peer too — but drop-oldest guarantees the final frame
	// survives, so delivery of the last marker proves the healthy link
	// stayed live behind a wedged sibling.
	payload := make([]byte, 64<<10)
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		payload[0] = byte(i)
		if err := a.Broadcast(payload); err != nil {
			t.Fatalf("Broadcast %d: %v", i, err)
		}
	}
	enqueueTime := time.Since(start)
	if enqueueTime > 2*time.Second {
		t.Errorf("broadcasting %d messages took %v; the wedged peer is stalling the caller", n, enqueueTime)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		last := false
		for _, m := range col.messages() {
			if len(m) > 0 && m[0] == byte(n-1) {
				last = true
			}
		}
		if last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy peer never received the final frame; got %d messages, pipeline %+v",
				col.count(), a.NetCounters().Metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("enqueue %v, healthy delivery %v, pipeline %+v",
		enqueueTime, time.Since(start), a.NetCounters().Metrics())
	if a.NetCounters().Drops.Load() == 0 {
		t.Errorf("expected overflow drops toward the wedged peer, got %+v", a.NetCounters().Metrics())
	}
}

// TestTCPQueueOverflowDropsOldest: with an unreachable peer the queue keeps
// the newest frames and drops the oldest, and the drop counter accounts for
// every evicted frame.
func TestTCPQueueOverflowDropsOldest(t *testing.T) {
	a, err := NewTCP(0, "127.0.0.1:0", map[crypto.NodeID]string{1: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SendQueue = 4
	a.DialTimeout = 50 * time.Millisecond

	const n = 32
	for i := 0; i < n; i++ {
		if err := a.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s := a.NetCounters()
	if got := s.Accepted.Load(); got != n {
		t.Errorf("enqueued = %d, want %d", got, n)
	}
	// The writer may hold one in-flight frame beyond the queue capacity.
	if min := uint64(n - 4 - 1); s.Drops.Load() < min {
		t.Errorf("drops = %d, want ≥ %d", s.Drops.Load(), min)
	}
	if d := s.Depth.Load(); d > 4+1 {
		t.Errorf("queue depth = %d exceeds capacity", d)
	}
}

// TestTCPRedialBackoffAndResume: a killed peer is redialed in the
// background with backoff, and delivery resumes once it comes back.
func TestTCPRedialBackoffAndResume(t *testing.T) {
	a, b := newTCPPair(t)
	col := newCollector()
	b.SetHandler(col.handler)
	if err := a.Send(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)

	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Push frames at the dead peer until the broken connection is detected
	// and background redials (against a refused port) start.
	deadline := time.Now().Add(10 * time.Second)
	for a.NetCounters().Redials.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background redials recorded")
		}
		_ = a.Send(1, []byte("void"))
		time.Sleep(5 * time.Millisecond)
	}

	b2, err := NewTCP(1, addr, map[crypto.NodeID]string{0: a.Addr()})
	if err != nil {
		t.Fatalf("restart listener: %v", err)
	}
	defer b2.Close()
	col2 := newCollector()
	b2.SetHandler(col2.handler)

	for col2.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no delivery after restart; pipeline %+v", a.NetCounters().Metrics())
		}
		_ = a.Send(1, []byte("back"))
		time.Sleep(5 * time.Millisecond)
	}
	if got := col2.messages(); got[0] != "back" && got[0] != "void" {
		t.Errorf("after reconnect received %q", got[0])
	}
}

// TestTCPInboundDuplicateClosed reproduces the inbound-connection leak:
// when both sides dial each other, each transport holds an inbound
// connection that never becomes a write path. Close must still reach it —
// before the fix, Close deadlocked waiting on that connection's read loop.
func TestTCPInboundDuplicateClosed(t *testing.T) {
	a, b := newTCPPair(t)
	colA, colB := newCollector(), newCollector()
	a.SetHandler(colA.handler)
	b.SetHandler(colB.handler)

	// Both sides dial: each ends up with a dialed conn (its write path)
	// plus an inbound conn from the other side's dial.
	if err := a.Send(1, []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(0, []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	colA.wait(t, 1)
	colB.wait(t, 1)

	done := make(chan struct{})
	go func() {
		// Close a first while b is still holding its side open: a must be
		// able to shut down its inbound duplicates on its own.
		if err := a.Close(); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked on an untracked inbound connection")
	}
}
