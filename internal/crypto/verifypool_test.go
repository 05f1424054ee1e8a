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
