package crypto

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zugchain/internal/metrics"
)

// VerifyPool executes Ed25519 signature checks on a fixed set of worker
// goroutines, moving the dominant CPU cost of an M-COM node (§V, Fig 7:
// "Ed25519 + message handling") off the single-threaded consumers of the
// results — the PBFT runner's event loop and the communication layer's
// transport handler.
//
// Submission semantics:
//
//   - Submit never blocks. Tasks hand off to a parked worker through a
//     buffered channel, so when the pool is idle the eager fast path wakes a
//     worker immediately with no lock contention.
//   - When the queue is saturated the submitting goroutine runs the task
//     itself. This doubles as natural backpressure: a flooding Byzantine
//     peer slows its own delivery goroutine down, never the event loop.
//   - After Close (or on a nil pool) Submit degrades to synchronous
//     execution, so shutdown ordering between the pool and its clients is
//     never deadlock-prone.
//
// Tasks submitted concurrently may complete in any order. Callers must
// therefore be order-insensitive — PBFT is: every message is idempotent and
// the protocol tolerates arbitrary reordering, which is what makes this
// pipelining safe (see DESIGN.md "Verification pipeline").
type VerifyPool struct {
	tasks  chan task
	quit   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
	once   sync.Once
	stats  metrics.PoolCounters
}

// task is one queued unit of work: fn(from, msg), submitted at start. It
// travels through the queue by value, so a caller that binds fn once (a
// method value kept in a field) submits without allocating.
type task struct {
	fn    func(from NodeID, msg any)
	from  NodeID
	msg   any
	start time.Time
}

// queueFactor sizes the task queue per worker. Deep enough to absorb a burst
// of one bus cycle's protocol messages, shallow enough that backpressure
// engages before memory does.
const queueFactor = 64

// NewVerifyPool creates a pool with the given worker count; workers <= 0
// selects GOMAXPROCS, matching the cores the runtime will actually use.
func NewVerifyPool(workers int) *VerifyPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &VerifyPool{
		tasks: make(chan task, workers*queueFactor),
		quit:  make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *VerifyPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case t := <-p.tasks:
			p.stats.Dequeued()
			p.stats.AddOffloaded()
			p.runTask(t)
		}
	}
}

// runTask executes one task on a worker, containing a panic so a single bad
// task cannot take the worker (and, since an unrecovered panic is
// process-fatal, the whole node) down with it. Swallowed panics are counted
// in the pool stats.
func (p *VerifyPool) runTask(t task) {
	defer func() {
		if r := recover(); r != nil {
			p.stats.AddPanic()
		}
	}()
	p.run(t)
}

// run executes one task and records its submit-to-completion time.
func (p *VerifyPool) run(t task) {
	t.fn(t.from, t.msg)
	p.stats.RecordTask(time.Since(t.start))
}

// Submit schedules fn(from, msg) for asynchronous execution; see the type
// comment for the exact semantics. fn must not block indefinitely (it would
// pin a worker) and must tolerate running on the caller's goroutine. The
// call is queued as a value: when fn is bound once and msg is a pointer,
// submitting allocates nothing.
func (p *VerifyPool) Submit(fn func(from NodeID, msg any), from NodeID, msg any) {
	if p == nil || p.closed.Load() {
		fn(from, msg)
		return
	}
	t := task{fn: fn, from: from, msg: msg, start: time.Now()}
	p.stats.Enqueued()
	select {
	case p.tasks <- t:
	default:
		// Queue saturated: run on the caller (backpressure).
		p.stats.Dequeued()
		p.stats.AddInline()
		p.run(t)
	}
}

// VerifyAsync checks that sig is a valid signature by id over msg, delivering
// the verdict to done from a worker goroutine (or the caller's, under
// backpressure). done must not block.
func (p *VerifyPool) VerifyAsync(reg *Registry, id NodeID, msg, sig []byte, done func(error)) {
	p.Submit(func(NodeID, any) { done(reg.Verify(id, msg, sig)) }, id, nil)
}

// Counters exposes the pool's instrumentation: tasks by execution path,
// queue depth/peak, and the longest submit-to-completion latency.
func (p *VerifyPool) Counters() *metrics.PoolCounters { return &p.stats }

// Close stops the workers and waits for in-flight tasks to finish. Tasks
// still queued are dropped — acceptable because verification results feed
// consumers that are shutting down too. Subsequent Submits run synchronously.
func (p *VerifyPool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		p.closed.Store(true)
		close(p.quit)
		p.wg.Wait()
	})
}
