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
	tasks   chan func()
	quit    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	once    sync.Once
	workers int
	stats   metrics.PoolCounters
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
		tasks:   make(chan func(), workers*queueFactor),
		quit:    make(chan struct{}),
		workers: workers,
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
		case fn := <-p.tasks:
			p.stats.Dequeued()
			p.stats.AddOffloaded()
			p.runTask(fn)
		}
	}
}

// runTask executes one task, containing a panic so a single bad task cannot
// take the worker (and, since an unrecovered panic is process-fatal, the
// whole node) down with it. Swallowed panics are counted in the pool stats;
// RunChunks additionally captures its own spans' panics and re-raises the
// first one on the caller, so panics from chunked work are never lost.
func (p *VerifyPool) runTask(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			p.stats.AddPanic()
		}
	}()
	fn()
}

// Workers reports the pool's worker count.
func (p *VerifyPool) Workers() int { return p.workers }

// Submit schedules fn for asynchronous execution; see the type comment for
// the exact semantics. fn must not block indefinitely (it would pin a
// worker) and must tolerate running on the caller's goroutine.
func (p *VerifyPool) Submit(fn func()) {
	if p == nil || p.closed.Load() {
		fn()
		return
	}
	start := time.Now()
	task := func() {
		fn()
		p.stats.RecordTask(time.Since(start))
	}
	p.stats.Enqueued()
	select {
	case p.tasks <- task:
	default:
		// Queue saturated: run on the caller (backpressure).
		p.stats.Dequeued()
		p.stats.AddInline()
		task()
	}
}

// RunChunks partitions [0, n) into spans of at most chunk items and runs
// fn(lo, hi) over every span, spreading the spans across the pool's workers,
// and returns once all spans have completed. It exists so a large signature
// batch (a 4096-record PrePrepare) does not serialize on the one pool worker
// that picked up its verify task.
//
// Unlike a naive Submit-and-WaitGroup fan-out, RunChunks is safe to call from
// inside a pool worker: spans are claimed from a shared atomic counter, the
// caller claims and runs spans itself alongside the helpers, and the wait is
// only for spans actually *executing* — a helper task that never leaves the
// queue (all workers busy, queue saturated) is harmless because the caller
// will have claimed its spans by then. No pool worker ever blocks on work
// that is stuck behind it.
//
// A panicking fn cannot strand the caller: every claimed span completes its
// bookkeeping even on panic, the remaining spans still run, and once all
// spans have settled the first panic value is re-raised on the caller's
// goroutine — so RunChunks panics like a plain loop over fn would, but never
// returns (or panics out) while helpers are still touching caller state.
func (p *VerifyPool) RunChunks(n, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	spans := (n + chunk - 1) / chunk
	if spans == 1 || p == nil || p.closed.Load() {
		fn(0, n)
		return
	}

	var next atomic.Int64 // next unclaimed span
	var done atomic.Int64 // completed spans
	var panicMu sync.Mutex
	var panicVal any // first recovered panic, re-raised on the caller
	var panicked bool
	finished := make(chan struct{})
	runSpan := func(lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked {
					panicked, panicVal = true, r
				}
				panicMu.Unlock()
			}
			// Must run even on panic, or the caller waits forever.
			if int(done.Add(1)) == spans {
				close(finished)
			}
		}()
		fn(lo, hi)
	}
	run := func() {
		for {
			s := int(next.Add(1)) - 1
			if s >= spans {
				return
			}
			hi := s*chunk + chunk
			if hi > n {
				hi = n
			}
			runSpan(s*chunk, hi)
		}
	}

	// One helper per span beyond the caller's own, capped at the worker
	// count; more could never run concurrently anyway.
	helpers := spans - 1
	if helpers > p.workers {
		helpers = p.workers
	}
	for i := 0; i < helpers; i++ {
		p.Submit(run)
	}
	run()
	<-finished
	panicMu.Lock()
	r, rOK := panicVal, panicked
	panicMu.Unlock()
	if rOK {
		panic(r)
	}
}

// VerifyAsync checks that sig is a valid signature by id over msg, delivering
// the verdict to done from a worker goroutine (or the caller's, under
// backpressure). done must not block.
func (p *VerifyPool) VerifyAsync(reg *Registry, id NodeID, msg, sig []byte, done func(error)) {
	p.Submit(func() { done(reg.Verify(id, msg, sig)) })
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
