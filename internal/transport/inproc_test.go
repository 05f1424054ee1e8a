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

// TestInprocPartitionBlocksBothDirections: a partition cuts the pair both
// ways, counts each blocked send, and Heal reopens the link.
func TestInprocPartitionBlocksBothDirections(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	a := net.Endpoint(0)
	b := net.Endpoint(1)
	ha, hb := newCollector(), newCollector()
	a.SetHandler(ha.handler)
	b.SetHandler(hb.handler)

	net.Partition(0, 1)
	if err := a.Send(1, []byte("out")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(0, []byte("in")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if ha.count() != 0 || hb.count() != 0 {
		t.Errorf("partitioned traffic delivered: in=%d out=%d", ha.count(), hb.count())
	}
	if got := net.FaultStats().Partitioned; got != 2 {
		t.Errorf("Partitioned = %d, want 2", got)
	}

	net.Heal(0, 1)
	if err := b.Send(0, []byte("after")); err != nil {
		t.Fatal(err)
	}
	ha.wait(t, 1)
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

// lossyPair returns a network whose 0→1 link is cfg, with a collector on 1.
func lossyPair(t *testing.T, cfg LinkConfig) (*Network, *Endpoint, *collector) {
	t.Helper()
	net := NewNetwork()
	t.Cleanup(func() { net.Close() })
	a := net.Endpoint(0)
	col := newCollector()
	net.Endpoint(1).SetHandler(col.handler)
	net.SetLink(0, 1, cfg)
	return net, a, col
}

func TestInprocDropsEverythingAtRateOne(t *testing.T) {
	net, a, col := lossyPair(t, LinkConfig{DropRate: 1})
	for i := 0; i < 20; i++ {
		if err := a.Send(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if col.count() != 0 {
		t.Errorf("%d messages leaked through DropRate=1", col.count())
	}
	if s := net.FaultStats(); s.Dropped != 20 {
		t.Errorf("Dropped = %d, want 20", s.Dropped)
	}
}

func TestInprocDuplicates(t *testing.T) {
	net, a, col := lossyPair(t, LinkConfig{DuplicateRate: 1})
	for i := 0; i < 5; i++ {
		if err := a.Send(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	col.wait(t, 10)
	if s := net.FaultStats(); s.Duplicated != 5 {
		t.Errorf("Duplicated = %d, want 5", s.Duplicated)
	}
}

func TestInprocDelayDeliversEventually(t *testing.T) {
	net, a, col := lossyPair(t, LinkConfig{DelayRate: 1, MaxDelay: 20 * time.Millisecond})
	payload := []byte("mutate-after-send")
	if err := a.Send(1, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X' // the network must have copied the held-back message
	col.wait(t, 1)
	if got := col.messages()[0]; got != "mutate-after-send" {
		t.Errorf("received %q", got)
	}
	if s := net.FaultStats(); s.Delayed != 1 {
		t.Errorf("Delayed = %d, want 1", s.Delayed)
	}
}

// TestInprocBroadcastFaultsPerPeer: a broadcast is one send per peer, so a
// lossy link to one peer costs only that peer its copy.
func TestInprocBroadcastFaultsPerPeer(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	cols := make([]*collector, 4)
	for i := range cols {
		cols[i] = newCollector()
		net.Endpoint(crypto.NodeID(i)).SetHandler(cols[i].handler)
	}
	net.SetLink(0, 2, LinkConfig{DropRate: 1})
	if err := net.Endpoint(0).Broadcast([]byte("b")); err != nil {
		t.Fatal(err)
	}
	cols[1].wait(t, 1)
	cols[3].wait(t, 1)
	time.Sleep(20 * time.Millisecond)
	if cols[2].count() != 0 {
		t.Error("broadcast crossed a DropRate=1 link")
	}
	if s := net.FaultStats(); s.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", s.Dropped)
	}
}

// TestNetworkRemoveAllowsRestart: Remove lets a crashed node reattach on a
// fresh endpoint, and a partition set before the crash still holds for the
// new attachment in both directions until Heal.
func TestNetworkRemoveAllowsRestart(t *testing.T) {
	net := NewNetwork()
	defer net.Close()
	ep0, ep1 := net.Endpoint(0), net.Endpoint(1)
	h0, h1 := newCollector(), newCollector()
	ep0.SetHandler(h0.handler)
	ep1.SetHandler(h1.handler)
	if err := ep0.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	h1.wait(t, 1)

	net.Remove(1)
	if same := net.Endpoint(1); same == ep1 {
		t.Fatal("Remove did not forget the endpoint")
	}
	h2 := newCollector()
	net.Endpoint(1).SetHandler(h2.handler)
	if err := ep0.Send(1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	h2.wait(t, 1)
	if h1.count() != 1 {
		t.Errorf("old endpoint received post-restart traffic")
	}

	net.Partition(0, 1)
	net.Remove(1)
	ep1 = net.Endpoint(1)
	h3 := newCollector()
	ep1.SetHandler(h3.handler)
	if err := ep0.Send(1, []byte("cut")); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(0, []byte("cut")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if h3.count() != 0 || h0.count() != 0 {
		t.Fatalf("partition leaked across the restart: %d to 1, %d to 0", h3.count(), h0.count())
	}
	if s := net.FaultStats(); s.Partitioned != 2 {
		t.Errorf("Partitioned = %d, want 2", s.Partitioned)
	}

	net.Heal(0, 1)
	if err := ep0.Send(1, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if err := ep1.Send(0, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	h3.wait(t, 1)
	h0.wait(t, 1)
}
