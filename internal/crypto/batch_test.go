package crypto

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"testing"

	"zugchain/internal/metrics"
)

// batchFixture is a set of keyed signers plus signed messages ready to feed a
// BatchVerifier.
type batchFixture struct {
	reg  *Registry
	kps  []*KeyPair
	msgs [][]byte
	sigs [][]byte
}

func newBatchFixture(t testing.TB, signers, n int) *batchFixture {
	t.Helper()
	f := &batchFixture{}
	for i := 0; i < signers; i++ {
		f.kps = append(f.kps, MustGenerateKeyPair(NodeID(i)))
	}
	f.reg = NewRegistry(f.kps...)
	for i := 0; i < n; i++ {
		msg := []byte(fmt.Sprintf("record %d payload", i))
		f.msgs = append(f.msgs, msg)
		f.sigs = append(f.sigs, f.kps[i%signers].Sign(msg))
	}
	return f
}

func (f *batchFixture) verifier() *BatchVerifier {
	bv := f.reg.NewBatchVerifier(len(f.msgs))
	for i := range f.msgs {
		bv.Add(f.kps[i%len(f.kps)].ID, f.msgs[i], f.sigs[i])
	}
	return bv
}

func TestBatchVerifyAllValid(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 64, 100} {
		f := newBatchFixture(t, 4, n)
		if failed := f.verifier().Verify(); failed != nil {
			t.Fatalf("n=%d: valid batch reported failures %v", n, failed)
		}
	}
}

// TestBatchVerifyPinpointsCorruption flips bits in various signature
// positions and checks that Verify names exactly the corrupted indices — the
// bisection fallback must be exact, not probabilistic.
func TestBatchVerifyPinpointsCorruption(t *testing.T) {
	cases := [][]int{{0}, {63}, {17}, {3, 40}, {0, 1, 2}, {10, 11, 40, 41, 63}}
	for _, corrupt := range cases {
		f := newBatchFixture(t, 4, 64)
		for _, i := range corrupt {
			f.sigs[i][2+i%60] ^= 0x40
		}
		failed := f.verifier().Verify()
		if len(failed) != len(corrupt) {
			t.Fatalf("corrupt %v: got failures %v", corrupt, failed)
		}
		for j, want := range corrupt {
			if failed[j] != want {
				t.Fatalf("corrupt %v: got failures %v", corrupt, failed)
			}
		}
	}
}

// TestBatchVerifyMalformedInputs checks the structural rejections: unknown
// signer, truncated signature, non-canonical s, and an undecodable R must be
// flagged without poisoning the rest of the batch.
func TestBatchVerifyMalformedInputs(t *testing.T) {
	f := newBatchFixture(t, 2, 8)

	f.sigs[1] = f.sigs[1][:40] // truncated

	// Non-canonical s: l + original s mod 2^256 would need big-int math;
	// simply setting the top bits makes s >= l.
	for i := 32; i < 64; i++ {
		f.sigs[2][i] = 0xff
	}

	bv := f.reg.NewBatchVerifier(len(f.msgs))
	for i := range f.msgs {
		id := f.kps[i%len(f.kps)].ID
		if i == 3 {
			id = NodeID(999) // unknown signer
		}
		bv.Add(id, f.msgs[i], f.sigs[i])
	}
	failed := bv.Verify()
	want := []int{1, 2, 3}
	if len(failed) != len(want) {
		t.Fatalf("got failures %v, want %v", failed, want)
	}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("got failures %v, want %v", failed, want)
		}
	}
}

// TestBatchVerifyDisabled checks that a registry with batch verification
// switched off still reaches the same verdicts via scalar verifies.
func TestBatchVerifyDisabled(t *testing.T) {
	cc := &metrics.CryptoCounters{}
	f := newBatchFixture(t, 4, 32)
	f.reg = f.reg.Accelerated(nil, false, cc)
	f.sigs[5][7] ^= 1
	failed := f.verifier().Verify()
	if len(failed) != 1 || failed[0] != 5 {
		t.Fatalf("got failures %v, want [5]", failed)
	}
	if cc.BatchOps.Load() != 0 {
		t.Fatalf("batch disabled but %d batch ops recorded", cc.BatchOps.Load())
	}
	if cc.ScalarVerifies.Load() != 32 {
		t.Fatalf("expected 32 scalar verifies, got %d", cc.ScalarVerifies.Load())
	}
}

// TestBatchVerifyFeedsCache checks that batch-verified signatures land in the
// cache, so a retransmitted batch is settled without curve work.
func TestBatchVerifyFeedsCache(t *testing.T) {
	cc := &metrics.CryptoCounters{}
	f := newBatchFixture(t, 4, 32)
	f.reg = f.reg.Accelerated(NewVerifyCache(0, cc), true, cc)

	if failed := f.verifier().Verify(); failed != nil {
		t.Fatalf("first pass failed: %v", failed)
	}
	batched, scalar := cc.BatchedSigs.Load(), cc.ScalarVerifies.Load()
	if batched != 32 {
		t.Fatalf("expected 32 batched sigs, got %d", batched)
	}

	if failed := f.verifier().Verify(); failed != nil {
		t.Fatalf("second pass failed: %v", failed)
	}
	if hits := cc.CacheHits.Load(); hits != 32 {
		t.Fatalf("expected 32 cache hits on retransmit, got %d", hits)
	}
	if cc.BatchedSigs.Load() != batched || cc.ScalarVerifies.Load() != scalar {
		t.Fatalf("retransmit did curve work: %d batched / %d scalar -> %d / %d",
			batched, scalar, cc.BatchedSigs.Load(), cc.ScalarVerifies.Load())
	}
}

// FuzzBatchVerify feeds the batch verifier pseudo-random mixes of valid,
// corrupted, and cross-wired signatures and asserts (a) every verdict agrees
// with VerifySignature — the cofactored scalar path every replica runs, the
// agreement property the accelerator's safety rests on — and (b) also with
// crypto/ed25519.Verify, since for honest and randomly corrupted signatures
// the cofactored and cofactorless accept sets coincide (they diverge only on
// deliberately crafted small-order-torsion inputs, which random corruption
// cannot produce and TestTorsionSignatureDeterministic covers).
func FuzzBatchVerify(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0))
	f.Add(int64(2), uint8(64), uint8(3))
	f.Add(int64(3), uint8(33), uint8(33))
	f.Add(int64(4), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, corruptRaw uint8) {
		n := int(nRaw)%96 + 1
		rng := rand.New(rand.NewSource(seed))

		kps := []*KeyPair{MustGenerateKeyPair(0), MustGenerateKeyPair(1), MustGenerateKeyPair(2)}
		reg := NewRegistry(kps...)

		msgs := make([][]byte, n)
		sigs := make([][]byte, n)
		ids := make([]NodeID, n)
		for i := range msgs {
			msgs[i] = make([]byte, 1+rng.Intn(64))
			rng.Read(msgs[i])
			kp := kps[rng.Intn(len(kps))]
			ids[i] = kp.ID
			sigs[i] = kp.Sign(msgs[i])
		}

		// Corrupt a subset: bit flips in R, s, or the message; or swap a
		// signature with another entry's (valid sig, wrong message).
		for c := 0; c < int(corruptRaw)%8; c++ {
			i := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				sigs[i][rng.Intn(32)] ^= 1 << rng.Intn(8)
			case 1:
				sigs[i][32+rng.Intn(32)] ^= 1 << rng.Intn(8)
			case 2:
				msgs[i][rng.Intn(len(msgs[i]))] ^= 1 << rng.Intn(8)
			case 3:
				j := rng.Intn(n)
				sigs[i] = sigs[j]
				ids[i] = ids[j]
			}
		}

		bv := reg.NewBatchVerifier(n)
		for i := range msgs {
			bv.Add(ids[i], msgs[i], sigs[i])
		}
		failed := bv.Verify()

		failedSet := make(map[int]bool, len(failed))
		for i, j := range failed {
			if i > 0 && failed[i-1] >= j {
				t.Fatalf("failed indices not strictly ascending: %v", failed)
			}
			failedSet[j] = true
		}
		for i := range msgs {
			pub, _ := reg.PublicKey(ids[i])
			got := !failedSet[i]
			if want := VerifySignature(pub, msgs[i], sigs[i]); got != want {
				t.Fatalf("index %d: batch verdict %v, VerifySignature %v (failed=%v)", i, got, want, failed)
			}
			if want := ed25519.Verify(pub, msgs[i], sigs[i]); got != want {
				t.Fatalf("index %d: batch verdict %v, ed25519.Verify %v (failed=%v)", i, got, want, failed)
			}
		}
	})
}

// BenchmarkVerifyBatch compares per-signature cost of the sequential scalar
// path against the multi-scalar batch equation at the PrePrepare batch size.
// The acceptance bar for this accelerator is batch64 >= 1.4x scalar
// throughput (sigs/sec).
func BenchmarkVerifyBatch(b *testing.B) {
	f := newBatchFixture(b, 4, 64)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % 64
			pub := f.kps[j%len(f.kps)].Public
			if !ed25519.Verify(pub, f.msgs[j], f.sigs[j]) {
				b.Fatal("verify failed")
			}
		}
	})
	b.Run("batch64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += 64 {
			if failed := f.verifier().Verify(); failed != nil {
				b.Fatalf("batch failed: %v", failed)
			}
		}
	})
}

// BenchmarkVerifyCachedRetransmit measures the verified-signature cache's
// fast path: the same 64-record batch verified repeatedly, as happens when a
// soft-timeout rebroadcast or NEWVIEW re-proposal replays signatures this
// node already checked. After the first pass every check is a cache hit.
func BenchmarkVerifyCachedRetransmit(b *testing.B) {
	cc := &metrics.CryptoCounters{}
	f := newBatchFixture(b, 4, 64)
	f.reg = f.reg.Accelerated(NewVerifyCache(0, cc), true, cc)
	if failed := f.verifier().Verify(); failed != nil {
		b.Fatalf("warm-up failed: %v", failed)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		if failed := f.verifier().Verify(); failed != nil {
			b.Fatalf("retransmit pass failed: %v", failed)
		}
	}
	b.StopTimer()
	hits, misses := float64(cc.CacheHits.Load()), float64(cc.CacheMisses.Load())
	b.ReportMetric(hits/(hits+misses)*100, "hit%")
}
