package crypto

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVerifyPoolVerifiesConcurrently(t *testing.T) {
	kp := MustGenerateKeyPair(1)
	other := MustGenerateKeyPair(2)
	reg := NewRegistry(kp, other)
	pool := NewVerifyPool(4)
	defer pool.Close()

	msg := []byte("per aspera ad astra")
	good := kp.Sign(msg)
	bad := other.Sign(msg) // valid signature, wrong claimed signer

	const n = 500
	var wg sync.WaitGroup
	var okCount, errCount atomic.Int64
	wg.Add(2 * n)
	for i := 0; i < n; i++ {
		pool.VerifyAsync(reg, 1, msg, good, func(err error) {
			if err == nil {
				okCount.Add(1)
			}
			wg.Done()
		})
		pool.VerifyAsync(reg, 1, msg, bad, func(err error) {
			if err != nil {
				errCount.Add(1)
			}
			wg.Done()
		})
	}
	wg.Wait()
	if okCount.Load() != n || errCount.Load() != n {
		t.Fatalf("got %d ok / %d rejected, want %d / %d", okCount.Load(), errCount.Load(), n, n)
	}
	st := pool.Counters()
	if tasks := st.Offloaded.Load() + st.Inline.Load(); tasks != 2*n {
		t.Errorf("stats account for %d tasks, want %d", tasks, 2*n)
	}
	if st.TaskMaxNs.Load() <= 0 {
		t.Error("no task latency recorded")
	}
}

func TestVerifyPoolCloseDegradesToSynchronous(t *testing.T) {
	pool := NewVerifyPool(2)
	pool.Close()
	pool.Close() // idempotent

	ran := false
	pool.Submit(func() { ran = true })
	if !ran {
		t.Fatal("post-close Submit must run the task synchronously")
	}

	// A nil pool behaves the same, so callers need no nil checks.
	var nilPool *VerifyPool
	ran = false
	nilPool.Submit(func() { ran = true })
	if !ran {
		t.Fatal("nil-pool Submit must run the task synchronously")
	}
	nilPool.Close()
}

func TestVerifyPoolSaturationRunsInline(t *testing.T) {
	pool := NewVerifyPool(1)
	defer pool.Close()

	// Pin the single worker, then overfill the queue: subsequent submits
	// must complete on the caller before Submit returns.
	release := make(chan struct{})
	pool.Submit(func() { <-release })
	time.Sleep(10 * time.Millisecond) // let the worker pick the blocker up
	for i := 0; i < queueFactor; i++ {
		pool.Submit(func() { <-release })
	}
	done := false
	pool.Submit(func() { done = true })
	if !done {
		t.Fatal("saturated Submit must fall back to inline execution")
	}
	if pool.Counters().Inline.Load() == 0 {
		t.Error("inline fallback not recorded")
	}
	close(release)
}

func TestRegistryConcurrentAddAndVerify(t *testing.T) {
	base := MustGenerateKeyPair(1)
	reg := NewRegistry(base)
	msg := []byte("copy-on-write")
	sig := base.Sign(msg)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := reg.Verify(1, msg, sig); err != nil {
					t.Errorf("verify: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		kp := MustGenerateKeyPair(DataCenterIDBase + NodeID(i))
		reg.Add(kp.ID, kp.Public)
	}
	close(stop)
	wg.Wait()
	if reg.Len() != 51 {
		t.Fatalf("registry has %d keys, want 51", reg.Len())
	}
}

// BenchmarkVerifySerial is the baseline: every signature checked inline on
// one goroutine, as the seed's engine event loop did.
func BenchmarkVerifySerial(b *testing.B) {
	kp := MustGenerateKeyPair(1)
	reg := NewRegistry(kp)
	msg := make([]byte, 256)
	sig := kp.Sign(msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.Verify(1, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyPipelined pushes the same checks through the VerifyPool
// from a single submitter, the runner's ingest pattern. At GOMAXPROCS >= 4
// the ns/op should be well under half of BenchmarkVerifySerial.
func BenchmarkVerifyPipelined(b *testing.B) {
	kp := MustGenerateKeyPair(1)
	reg := NewRegistry(kp)
	msg := make([]byte, 256)
	sig := kp.Sign(msg)
	pool := NewVerifyPool(0)
	defer pool.Close()

	var failed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.VerifyAsync(reg, 1, msg, sig, func(err error) {
			if err != nil {
				failed.Add(1)
			}
			wg.Done()
		})
	}
	wg.Wait()
	b.StopTimer()
	if failed.Load() != 0 {
		b.Fatalf("%d verifications failed", failed.Load())
	}
}

func TestRunChunksCoversRangeExactlyOnce(t *testing.T) {
	pool := NewVerifyPool(4)
	defer pool.Close()
	for _, tc := range []struct{ n, chunk int }{
		{1, 16}, {15, 16}, {16, 16}, {17, 16}, {100, 16}, {100, 1}, {64, 0},
	} {
		covered := make([]atomic.Int32, tc.n)
		pool.RunChunks(tc.n, tc.chunk, func(lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("n=%d chunk=%d: bad span [%d,%d)", tc.n, tc.chunk, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
		})
		for i := range covered {
			if got := covered[i].Load(); got != 1 {
				t.Fatalf("n=%d chunk=%d: index %d covered %d times", tc.n, tc.chunk, i, got)
			}
		}
	}
	// Degenerate inputs are no-ops.
	pool.RunChunks(0, 16, func(lo, hi int) { t.Error("fn called for n=0") })
	pool.RunChunks(-3, 16, func(lo, hi int) { t.Error("fn called for n<0") })
}

// TestRunChunksFromPoolWorker is the deadlock regression: RunChunks invoked
// from inside a pool task (exactly what VerifyRequestDeep does when the
// runner submits preVerify to the pool) must complete even when every worker
// is busy and the helper tasks never leave the queue.
func TestRunChunksFromPoolWorker(t *testing.T) {
	pool := NewVerifyPool(1) // single worker: helpers can never be picked up
	defer pool.Close()
	done := make(chan int, 1)
	pool.Submit(func() {
		total := 0
		var mu sync.Mutex
		pool.RunChunks(64, 4, func(lo, hi int) {
			mu.Lock()
			total += hi - lo
			mu.Unlock()
		})
		done <- total
	})
	select {
	case got := <-done:
		if got != 64 {
			t.Fatalf("covered %d items, want 64", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunChunks deadlocked when called from a pool worker")
	}
}

func TestRunChunksAfterCloseRunsSynchronously(t *testing.T) {
	pool := NewVerifyPool(2)
	pool.Close()
	total := 0
	pool.RunChunks(32, 8, func(lo, hi int) { total += hi - lo })
	if total != 32 {
		t.Fatalf("covered %d items after Close, want 32", total)
	}
	var nilPool *VerifyPool
	total = 0
	nilPool.RunChunks(32, 8, func(lo, hi int) { total += hi - lo })
	if total != 32 {
		t.Fatalf("nil pool covered %d items, want 32", total)
	}
}

// TestRunChunksPanicDoesNotHang is the regression for the panic-stranding
// bug: a chunk that panics used to kill its goroutine without ever counting
// its span done, leaving the caller blocked on the completion channel
// forever. Now every span completes its bookkeeping, the remaining spans
// still run, the first panic is re-raised on the caller once all spans have
// settled (so no helper is still touching caller state when it propagates),
// and the pool's workers survive for subsequent work.
func TestRunChunksPanicDoesNotHang(t *testing.T) {
	pool := NewVerifyPool(4)
	defer pool.Close()

	result := make(chan any, 1)
	covered := make([]atomic.Int32, 64)
	go func() {
		defer func() { result <- recover() }()
		pool.RunChunks(len(covered), 4, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
			if lo == 20 {
				panic("chunk exploded")
			}
		})
		result <- nil
	}()

	select {
	case r := <-result:
		if r == nil {
			t.Fatal("RunChunks swallowed the chunk panic")
		}
		if s, ok := r.(string); !ok || s != "chunk exploded" {
			t.Fatalf("unexpected panic value: %v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunChunks hung after a chunk panicked")
	}
	// All spans ran exactly once despite the panic — when the panic reached
	// the caller, no helper was left mid-span.
	for i := range covered {
		if got := covered[i].Load(); got != 1 {
			t.Fatalf("index %d covered %d times, want 1", i, got)
		}
	}

	// The pool is still fully operational.
	total := 0
	var mu sync.Mutex
	pool.RunChunks(32, 4, func(lo, hi int) {
		mu.Lock()
		total += hi - lo
		mu.Unlock()
	})
	if total != 32 {
		t.Fatalf("pool covered %d items after panic, want 32", total)
	}
}

// TestVerifyPoolSubmitPanicContained checks that a panicking Submit task is
// contained by the worker (counted, not fatal) and the worker keeps serving.
func TestVerifyPoolSubmitPanicContained(t *testing.T) {
	pool := NewVerifyPool(1)
	defer pool.Close()

	pool.Submit(func() { panic("bad verification callback") })
	done := make(chan struct{})
	pool.Submit(func() { close(done) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker died after a task panic")
	}
	deadline := time.Now().Add(10 * time.Second)
	for pool.Counters().Panics.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("expected 1 contained panic in stats, got %d", pool.Counters().Panics.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
