package crypto

import "testing"

// TestVerifySignatureDoesNotAllocate guards the scalar verify every
// inbound Prepare, PrePrepare and Checkpoint pays: the challenge hash and
// scalar live on the stack.
func TestVerifySignatureDoesNotAllocate(t *testing.T) {
	kp := MustGenerateKeyPair(1)
	msg := make([]byte, 200)
	sig := kp.Sign(msg)
	verify := func() {
		if !VerifySignature(kp.Public, msg, sig) {
			t.Fatal("valid signature rejected")
		}
	}
	if n := testing.AllocsPerRun(50, verify); n != 0 {
		t.Errorf("VerifySignature allocates %v times, want 0", n)
	}
}

// TestVerifyPoolSubmitDoesNotAllocate guards the pool's queue: a task bound
// once and submitted with a pointer message travels by value, so submitting
// it and running it on a worker allocate nothing.
func TestVerifyPoolSubmitDoesNotAllocate(t *testing.T) {
	pool := NewVerifyPool(1)
	defer pool.Close()
	done := make(chan struct{}, 1)
	var got NodeID
	fn := func(from NodeID, msg any) {
		got = from
		done <- struct{}{}
	}
	msg := new(int)
	submit := func() {
		pool.Submit(fn, 3, msg)
		<-done
	}
	submit()
	if n := testing.AllocsPerRun(100, submit); n != 0 {
		t.Errorf("Submit and run allocate %v times, want 0", n)
	}
	if got != 3 {
		t.Errorf("task ran with sender %v, want 3", got)
	}
	if st := pool.Counters(); st.Offloaded.Load()+st.Inline.Load() != 102 {
		t.Errorf("stats account for %d tasks, want 102", st.Offloaded.Load()+st.Inline.Load())
	}
}
