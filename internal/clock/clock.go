// Package clock abstracts time so every timeout in ZugChain — the
// communication layer's soft and hard timeouts, PBFT view timers, bus cycle
// scheduling — can be driven deterministically in tests via Fake and by the
// wall clock in deployments via Real.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock supplies the current time and timer construction.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// After returns a channel that receives the fire time after d.
	After(d time.Duration) <-chan time.Time
}

// Timer is a single-shot timer.
type Timer interface {
	// C returns the channel on which the fire time is delivered.
	C() <-chan time.Time
	// Stop prevents the timer from firing. It reports whether the timer
	// was still pending.
	Stop() bool
}

// Func is a callback scheduled by AfterFunc.
type Func struct {
	timer  Timer
	cancel chan struct{}
	once   sync.Once
}

// AfterFunc runs fn on its own goroutine once d has passed on c, unless
// Stop is called first.
func AfterFunc(c Clock, d time.Duration, fn func()) *Func {
	f := &Func{timer: c.NewTimer(d), cancel: make(chan struct{})}
	go func() {
		select {
		case <-f.timer.C():
			// The select picks randomly when both channels are ready:
			// a timer that fired concurrently with its cancellation
			// must not run the callback.
			select {
			case <-f.cancel:
				return
			default:
			}
			fn()
		case <-f.cancel:
			f.timer.Stop()
		}
	}()
	return f
}

// Stop cancels the callback if it has not started. It is idempotent.
func (f *Func) Stop() {
	f.once.Do(func() { close(f.cancel) })
}

// Real is the wall-clock implementation. The zero value is ready to use.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }
func (r realTimer) Stop() bool          { return r.t.Stop() }

// Fake is a manually advanced clock for deterministic tests. Timers fire
// synchronously during Advance, in deadline order.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
	seq    uint64 // tiebreak for equal deadlines, preserves creation order
}

var _ Clock = (*Fake)(nil)

// NewFake returns a fake clock starting at a fixed, arbitrary epoch.
func NewFake() *Fake {
	return &Fake{now: time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)}
}

// Now implements Clock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// NewTimer implements Clock. A non-positive duration fires on the next
// Advance (or immediately on Advance(0)).
func (f *Fake) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{
		clock:    f,
		ch:       make(chan time.Time, 1),
		deadline: f.now.Add(d),
		seq:      f.seq,
	}
	f.seq++
	heap.Push(&f.timers, t)
	return t
}

// After implements Clock.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	return f.NewTimer(d).C()
}

// Advance moves the clock forward by d, firing all timers whose deadlines
// are reached, in deadline order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for len(f.timers) > 0 && !f.timers[0].deadline.After(target) {
		t := heap.Pop(&f.timers).(*fakeTimer)
		if t.stopped {
			continue
		}
		f.now = t.deadline
		t.fired = true
		// Buffered channel of size 1; a fake timer fires at most once.
		t.ch <- t.deadline
	}
	f.now = target
	f.mu.Unlock()
}

// PendingTimers reports how many timers are armed and not yet fired,
// useful for asserting that cleanup cancelled everything.
func (f *Fake) PendingTimers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, t := range f.timers {
		if !t.stopped && !t.fired {
			n++
		}
	}
	return n
}

type fakeTimer struct {
	clock    *Fake
	ch       chan time.Time
	deadline time.Time
	seq      uint64
	index    int // heap index
	stopped  bool
	fired    bool
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// timerHeap orders fake timers by deadline, then creation order.
type timerHeap []*fakeTimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline.Equal(h[j].deadline) {
		return h[i].seq < h[j].seq
	}
	return h[i].deadline.Before(h[j].deadline)
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*fakeTimer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
