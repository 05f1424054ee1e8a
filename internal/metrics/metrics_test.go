package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.AddSent(100)
	c.AddSent(50)
	c.AddReceived(30)
	c.AddSignature()
	c.AddVerification()
	c.AddVerification()
	c.AddRequest()
	c.AddDuplicate()

	if c.MsgsSent.Load() != 2 || c.BytesSent.Load() != 150 {
		t.Errorf("sent = %d msgs / %d bytes, want 2/150", c.MsgsSent.Load(), c.BytesSent.Load())
	}
	if c.MsgsReceived.Load() != 1 || c.BytesReceived.Load() != 30 {
		t.Errorf("received = %d msgs / %d bytes, want 1/30", c.MsgsReceived.Load(), c.BytesReceived.Load())
	}
	if c.Signatures.Load() != 1 || c.Verifications.Load() != 2 {
		t.Errorf("crypto = %d sigs / %d verifies", c.Signatures.Load(), c.Verifications.Load())
	}
	if c.Requests.Load() != 1 || c.Duplicates.Load() != 1 {
		t.Errorf("requests = %d, duplicates = %d", c.Requests.Load(), c.Duplicates.Load())
	}
	v := values(c.Metrics())
	if v["zugchain_core_bytes_sent_total"] != 150 || v["zugchain_core_verifications_total"] != 2 {
		t.Errorf("Metrics() = %v", v)
	}
}

// values flattens a family's samples into name -> value.
func values(ms []Metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AddSent(1)
				c.AddReceived(2)
			}
		}()
	}
	wg.Wait()
	if c.MsgsSent.Load() != 8000 || c.BytesReceived.Load() != 16000 {
		t.Errorf("sent = %d msgs, received = %d bytes", c.MsgsSent.Load(), c.BytesReceived.Load())
	}
}

func TestCPUWorkUnitsMonotone(t *testing.T) {
	light := CPUWorkUnits(0, 0, 10, 1000)
	heavy := CPUWorkUnits(5, 20, 10, 1000)
	if light >= heavy {
		t.Errorf("work proxy not monotone: light=%v heavy=%v", light, heavy)
	}
	if zero := CPUWorkUnits(0, 0, 0, 0); zero != 0 {
		t.Errorf("zero work = %v", zero)
	}
}

func TestLatencyStats(t *testing.T) {
	var l Latency
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	s := l.Stats()
	if s.Count != 100 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Errorf("Mean = %v, want 50.5ms", s.Mean)
	}
	if s.Median != 51*time.Millisecond {
		t.Errorf("Median = %v, want 51ms", s.Median)
	}
	if s.P99 != 99*time.Millisecond {
		t.Errorf("P99 = %v, want 99ms", s.P99)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", s.Max)
	}
}

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if s := l.Stats(); s != (LatencyStats{}) {
		t.Errorf("Stats() on empty = %+v", s)
	}
}

func TestLatencySingleSample(t *testing.T) {
	var l Latency
	l.Record(7 * time.Millisecond)
	s := l.Stats()
	if s.Mean != 7*time.Millisecond || s.Median != 7*time.Millisecond ||
		s.P99 != 7*time.Millisecond || s.Max != 7*time.Millisecond {
		t.Errorf("Stats() = %+v", s)
	}
}

func TestLatencySamplesOrderAndReset(t *testing.T) {
	var l Latency
	l.Record(3 * time.Millisecond)
	l.Record(1 * time.Millisecond)
	l.Record(2 * time.Millisecond)
	got := l.Samples()
	want := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Samples()[%d] = %v, want %v (arrival order)", i, got[i], want[i])
		}
	}
	l.Reset()
	if l.Count() != 0 {
		t.Errorf("Count after Reset = %d", l.Count())
	}
}

func TestPercentileIndex(t *testing.T) {
	tests := []struct {
		n    int
		p    float64
		want int
	}{
		{1, 0.99, 0},
		{100, 0.99, 98},
		{100, 0.50, 49},
		{10, 1.0, 9},
		{10, 0.0, 0},
	}
	for _, tt := range tests {
		if got := percentileIndex(tt.n, tt.p); got != tt.want {
			t.Errorf("percentileIndex(%d, %v) = %d, want %d", tt.n, tt.p, got, tt.want)
		}
	}
}

func TestSampleMemory(t *testing.T) {
	s := SampleMemory()
	if s.HeapAlloc == 0 || s.TotalAlloc == 0 {
		t.Errorf("memory sample = %+v, want nonzero alloc", s)
	}
}

func TestPoolCountersSnapshot(t *testing.T) {
	var p PoolCounters
	p.Enqueued()
	p.Enqueued()
	p.Enqueued()
	p.Dequeued()
	p.AddOffloaded()
	p.AddInline()
	p.RecordTask(10 * time.Millisecond)
	p.RecordTask(30 * time.Millisecond)

	if p.Offloaded.Load() != 1 || p.Inline.Load() != 1 {
		t.Errorf("offloaded = %d, inline = %d, want 1/1", p.Offloaded.Load(), p.Inline.Load())
	}
	if d := p.Depth.Load(); d != 2 {
		t.Errorf("queue depth = %d, want 2", d)
	}
	if pk := p.Peak.Load(); pk != 3 {
		t.Errorf("queue peak = %d, want 3", pk)
	}
	if v := values(p.Metrics()); v["zugchain_pool_task_max_seconds"] != 0.03 {
		t.Errorf("task max = %vs, want 0.03s", v["zugchain_pool_task_max_seconds"])
	}
}

func TestPoolCountersConcurrent(t *testing.T) {
	var p PoolCounters
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Enqueued()
				p.Dequeued()
				p.AddOffloaded()
				p.RecordTask(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if o := p.Offloaded.Load(); o != 8000 {
		t.Errorf("offloaded = %d, want 8000", o)
	}
	if d := p.Depth.Load(); d != 0 {
		t.Errorf("final queue depth = %d, want 0", d)
	}
	if pk := p.Peak.Load(); pk < 1 {
		t.Errorf("queue peak = %d, want >= 1", pk)
	}
}

func TestBatchCountersSnapshot(t *testing.T) {
	var b BatchCounters
	if b.Flushes.Load() != 0 || b.Records.Load() != 0 || b.WaitMaxNs.Load() != 0 {
		t.Error("zero-value batch counters are not zero")
	}
	b.RecordFlush(4, 2*time.Millisecond, FlushSize)
	b.RecordFlush(8, 6*time.Millisecond, FlushDelay)
	b.RecordFlush(3, time.Millisecond, FlushDelay)

	if b.Flushes.Load() != 3 || b.Records.Load() != 15 {
		t.Errorf("flushes/records = %d/%d", b.Flushes.Load(), b.Records.Load())
	}
	if b.SizeFlushes.Load() != 1 || b.DelayFlushes.Load() != 2 {
		t.Errorf("triggers = %d size, %d delay", b.SizeFlushes.Load(), b.DelayFlushes.Load())
	}
	if m, mean := b.MaxSize.Load(), b.Records.Load()/b.Flushes.Load(); m != 8 || mean != 5 {
		t.Errorf("sizes = max %d, mean %d", m, mean)
	}
	if v := values(b.Metrics()); v["zugchain_batch_wait_max_seconds"] != 0.006 {
		t.Errorf("wait max = %vs, want 0.006s", v["zugchain_batch_wait_max_seconds"])
	}
	b.RecordFlush(1, 0, FlushIdle)
	if b.IdleFlushes.Load() != 1 || b.SizeFlushes.Load() != 1 || b.DelayFlushes.Load() != 2 {
		t.Errorf("idle flush counted as %d idle, %d size, %d delay", b.IdleFlushes.Load(), b.SizeFlushes.Load(), b.DelayFlushes.Load())
	}
}

func TestGroupCommitCountersSnapshot(t *testing.T) {
	var g GroupCommitCounters
	if g.Groups.Load() != 0 || g.Blocks.Load() != 0 {
		t.Error("zero-value group-commit counters are not zero")
	}
	g.RecordGroup(1)
	g.RecordGroup(7)
	g.RecordGroup(4)
	g.AddSync()
	g.AddSync()

	if g.Groups.Load() != 3 || g.Blocks.Load() != 12 || g.Syncs.Load() != 2 {
		t.Errorf("groups = %d, blocks = %d, syncs = %d", g.Groups.Load(), g.Blocks.Load(), g.Syncs.Load())
	}
	if mean := g.Blocks.Load() / g.Groups.Load(); mean != 4 {
		t.Errorf("mean group = %d, want 4", mean)
	}
}

func TestBatchCountersConcurrent(t *testing.T) {
	var b BatchCounters
	var g GroupCommitCounters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.RecordFlush(w+1, time.Duration(i)*time.Microsecond, FlushTrigger(i%3))
				g.RecordGroup(w + 1)
			}
		}(w)
	}
	wg.Wait()
	if b.Flushes.Load() != 8000 || b.MaxSize.Load() != 8 {
		t.Errorf("flushes = %d, max size = %d", b.Flushes.Load(), b.MaxSize.Load())
	}
	if g.Groups.Load() != 8000 || g.Blocks.Load() != 36000 {
		t.Errorf("groups = %d, blocks = %d", g.Groups.Load(), g.Blocks.Load())
	}
}

func TestNetCountersSnapshot(t *testing.T) {
	var n NetCounters
	for i := 0; i < 5; i++ {
		n.Enqueued()
	}
	n.Dequeued(3)
	n.AddDrop()
	n.Dequeued(1) // the dropped frame leaves the queue too
	n.AddWrite(3)
	n.AddWriteError(2)
	n.AddRedial()

	v := values(n.Metrics())
	if v["zugchain_net_enqueued_total"] != 5 || v["zugchain_net_drops_total"] != 1 ||
		v["zugchain_net_write_errors_total"] != 2 || v["zugchain_net_redials_total"] != 1 {
		t.Errorf("Metrics() = %v", v)
	}
	if n.WriteOps.Load() != 1 || n.Frames.Load() != 3 {
		t.Errorf("coalescing: ops=%d frames=%d", n.WriteOps.Load(), n.Frames.Load())
	}
	if n.Depth.Load() != 1 || n.Peak.Load() != 5 {
		t.Errorf("depth = %d, peak = %d, want 1/5", n.Depth.Load(), n.Peak.Load())
	}
}

func TestNetCountersZero(t *testing.T) {
	var n NetCounters
	for _, m := range n.Metrics() {
		if m.Value != 0 {
			t.Errorf("zero-value %s = %v", m.Name, m.Value)
		}
	}
}

func TestNetCountersConcurrent(t *testing.T) {
	var n NetCounters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n.Enqueued()
				n.Dequeued(1)
				n.AddWrite(2)
			}
		}()
	}
	wg.Wait()
	if n.Accepted.Load() != 8000 || n.Depth.Load() != 0 {
		t.Errorf("enqueued = %d, depth = %d", n.Accepted.Load(), n.Depth.Load())
	}
	if n.WriteOps.Load() != 8000 || n.Frames.Load() != 16000 {
		t.Errorf("ops=%d frames=%d", n.WriteOps.Load(), n.Frames.Load())
	}
	if pk := n.Peak.Load(); pk < 1 || pk > 8 {
		t.Errorf("peak = %d out of [1,8]", pk)
	}
}
