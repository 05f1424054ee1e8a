package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"zugchain/internal/crypto"
)

// collector records inbound messages for assertions.
type collector struct {
	mu   sync.Mutex
	got  []string
	from []crypto.NodeID
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1024)}
}

func (c *collector) handler(from crypto.NodeID, data []byte) {
	c.mu.Lock()
	c.got = append(c.got, string(data))
	c.from = append(c.from, from)
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for message %d of %d", i+1, n)
		}
	}
}

func (c *collector) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.got))
	copy(out, c.got)
	return out
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func TestInprocSendDeliver(t *testing.T) {
	net := NewNetwork()
	defer net.Close()

	a := net.Endpoint(0)
	b := net.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	if err := a.Send(1, []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	col.wait(t, 1)
	if got := col.messages(); got[0] != "hello" {
		t.Errorf("received %q", got[0])
	}
	if col.from[0] != 0 {
		t.Errorf("from = %v, want r0", col.from[0])
	}
}

func TestInprocBroadcastExcludesSelf(t *testing.T) {
	net := NewNetwork()
	defer net.Close()

	cols := make([]*collector, 4)
	for i := 0; i < 4; i++ {
		cols[i] = newCollector()
		net.Endpoint(crypto.NodeID(i)).SetHandler(cols[i].handler)
	}
	if err := net.Endpoint(0).Broadcast([]byte("x")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for i := 1; i < 4; i++ {
		cols[i].wait(t, 1)
	}
	time.Sleep(20 * time.Millisecond)
	if cols[0].count() != 0 {
		t.Error("broadcast delivered to sender")
	}
}

func TestInprocSendUnknownPeer(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	a := net.Endpoint(0)
	if err := a.Send(9, []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Send = %v, want ErrUnknownPeer", err)
	}
}

func TestInprocPartitionAndHeal(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	net.Partition(0, 1)
	if err := a.Send(1, []byte("lost")); err != nil {
		t.Fatalf("Send during partition: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if col.count() != 0 {
		t.Fatal("message crossed partition")
	}

	net.Heal(0, 1)
	if err := a.Send(1, []byte("through")); err != nil {
		t.Fatalf("Send after heal: %v", err)
	}
	col.wait(t, 1)
	if got := col.messages(); got[0] != "through" {
		t.Errorf("received %q", got[0])
	}
}

func TestInprocIsolateRejoin(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	cols := make([]*collector, 3)
	for i := 0; i < 3; i++ {
		cols[i] = newCollector()
		net.Endpoint(crypto.NodeID(i)).SetHandler(cols[i].handler)
	}
	net.Isolate(2)
	if err := net.Endpoint(0).Broadcast([]byte("b")); err != nil {
		t.Fatal(err)
	}
	cols[1].wait(t, 1)
	time.Sleep(20 * time.Millisecond)
	if cols[2].count() != 0 {
		t.Error("isolated node received broadcast")
	}

	net.Rejoin(2)
	if err := net.Endpoint(0).Send(2, []byte("back")); err != nil {
		t.Fatal(err)
	}
	cols[2].wait(t, 1)
}

func TestInprocDropRate(t *testing.T) {
	net := NewNetwork(WithSeed(42))
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	net.SetLink(0, 1, LinkConfig{DropRate: 0.5})
	const total = 400
	for i := 0; i < total; i++ {
		if err := a.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	got := col.count()
	if got == 0 || got == total {
		t.Errorf("drop rate 0.5 delivered %d/%d", got, total)
	}
	// With seed 42 the binomial outcome is deterministic but we only rely
	// on a loose band to stay robust against math/rand changes.
	if got < total/4 || got > 3*total/4 {
		t.Errorf("delivered %d/%d, outside [100, 300]", got, total)
	}
}

func TestInprocLatency(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	net.SetLink(0, 1, LinkConfig{Latency: 50 * time.Millisecond})
	start := time.Now()
	if err := a.Send(1, []byte("delayed")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Errorf("delivered after %v, want >= ~50ms", elapsed)
	}
}

func TestInprocCounters(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	payload := make([]byte, 100)
	if err := a.Send(1, payload); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	as, bs := a.Counters(), b.Counters()
	if as.MsgsSent.Load() != 1 || as.BytesSent.Load() != 100 {
		t.Errorf("sender counters = %v", as.Metrics())
	}
	if bs.MsgsReceived.Load() != 1 || bs.BytesReceived.Load() != 100 {
		t.Errorf("receiver counters = %v", bs.Metrics())
	}
}

func TestInprocSenderBufferReuse(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	col := newCollector()
	b.SetHandler(col.handler)

	buf := []byte("first")
	if err := a.Send(1, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX") // mutate immediately after Send
	col.wait(t, 1)
	if got := col.messages(); got[0] != "first" {
		t.Errorf("received %q, want %q (delivery must copy)", got[0], "first")
	}
}

func TestInprocClosedEndpoint(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	a := net.Endpoint(0)
	net.Endpoint(1)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send on closed = %v, want ErrClosed", err)
	}
}

func TestInprocNetworkClose(t *testing.T) {
	net := NewNetwork()
	a := net.Endpoint(0)
	net.Endpoint(1)
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, []byte("x")); err == nil {
		t.Error("Send after network close succeeded")
	}
	// Close is idempotent.
	if err := net.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
