package core

import (
	"container/heap"
	"time"

	"zugchain/internal/clock"
)

// deadline is one pending Algorithm 1 timeout: an open request's soft or
// hard timeout, or the batch delay. Each owner embeds its own, so arming and
// cancelling allocate nothing.
type deadline struct {
	at  time.Time
	seq uint64    // arming order: equal deadlines fire in the order armed
	pos int       // position in the queue plus one; 0 while not queued
	st  *reqState // the request timing out; nil for the batch delay
}

// deadlineQueue orders a layer's pending timeouts by deadline and keeps one
// clock timer armed for the earliest. Arming or cancelling a timeout is a
// heap operation. The clock timer is replaced only when a timeout is armed
// for earlier than the timer; a timer whose timeout was cancelled is left
// to fire, finds nothing due and re-arms for whatever is earliest then. So
// a backup that sees a record every bus cycle arms about one clock timer
// per timeout period rather than two per record. All methods run under the
// layer's mutex.
type deadlineQueue struct {
	clk    clock.Clock
	onFire func(gen uint64) // takes the layer's mutex, then calls fired and popDue

	items []*deadline
	seq   uint64

	timer  *clock.Func // nil when no clock timer is armed
	armed  time.Time   // the deadline timer fires at
	gen    uint64      // identifies the armed timer; a replaced one's callback is stale
	now    time.Time   // while firing: the time due timeouts are popped against
	firing bool
}

func newDeadlineQueue(clk clock.Clock, onFire func(gen uint64)) *deadlineQueue {
	return &deadlineQueue{clk: clk, onFire: onFire}
}

// queued reports whether d is armed.
func (q *deadlineQueue) queued(d *deadline) bool { return d.pos > 0 }

// arm (re)arms d to fire after wait.
func (q *deadlineQueue) arm(d *deadline, wait time.Duration) {
	d.at = q.clk.Now().Add(wait)
	d.seq = q.seq
	q.seq++
	if q.queued(d) {
		heap.Fix(q, d.pos-1)
	} else {
		heap.Push(q, d)
	}
	q.schedule()
}

// cancel disarms d; a no-op when it is not armed.
func (q *deadlineQueue) cancel(d *deadline) {
	if q.queued(d) {
		heap.Remove(q, d.pos-1)
	}
}

// schedule arms the clock timer for the earliest timeout unless a timer
// already fires no later than it. While firing, a timeout that is already
// due is left to the popDue loop rather than given a zero-length timer.
func (q *deadlineQueue) schedule() {
	if len(q.items) == 0 {
		return
	}
	next := q.items[0].at
	if q.timer != nil && !next.Before(q.armed) {
		return
	}
	if q.firing && !next.After(q.now) {
		return
	}
	if q.timer != nil {
		q.timer.Stop()
	}
	q.gen++
	gen := q.gen
	q.armed = next
	q.timer = clock.AfterFunc(q.clk, next.Sub(q.clk.Now()), func() { q.onFire(gen) })
}

// fired reports whether the timer with generation gen is the armed one and,
// if so, starts a firing round at the clock's current time: the caller pops
// every due timeout with popDue, then calls done.
func (q *deadlineQueue) fired(gen uint64) bool {
	if q.timer == nil || gen != q.gen {
		return false // replaced or stopped after it fired
	}
	q.timer = nil
	q.firing = true
	q.now = q.clk.Now()
	return true
}

// popDue removes and returns the earliest timeout if it is due in the
// current firing round, or nil.
func (q *deadlineQueue) popDue() *deadline {
	if len(q.items) == 0 || q.items[0].at.After(q.now) {
		return nil
	}
	return heap.Pop(q).(*deadline)
}

// done ends a firing round and arms the timer for what remains.
func (q *deadlineQueue) done() {
	q.firing = false
	q.schedule()
}

// stop disarms every timeout and the clock timer.
func (q *deadlineQueue) stop() {
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
	for _, d := range q.items {
		d.pos = 0
	}
	q.items = nil
}

// heap.Interface, ordered by deadline, then arming order.

func (q *deadlineQueue) Len() int { return len(q.items) }

func (q *deadlineQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.at.Equal(b.at) {
		return a.seq < b.seq
	}
	return a.at.Before(b.at)
}

func (q *deadlineQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].pos = i + 1
	q.items[j].pos = j + 1
}

func (q *deadlineQueue) Push(x any) {
	d := x.(*deadline)
	q.items = append(q.items, d)
	d.pos = len(q.items)
}

func (q *deadlineQueue) Pop() any {
	old := q.items
	d := old[len(old)-1]
	old[len(old)-1] = nil
	q.items = old[:len(old)-1]
	d.pos = 0
	return d
}
