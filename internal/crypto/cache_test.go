package crypto

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"zugchain/internal/metrics"
)

func TestVerifyCacheHitMissEvict(t *testing.T) {
	cc := &metrics.CryptoCounters{}
	// Capacity 16 across 8 shards = 2 entries per shard.
	c := NewVerifyCache(16, cc)

	sig := make([]byte, SignatureSize)
	pub := make(ed25519.PublicKey, ed25519.PublicKeySize)
	d := Hash([]byte("msg"))
	if c.Seen(1, pub, d, sig) {
		t.Fatal("hit on empty cache")
	}
	c.Note(1, pub, d, sig)
	if !c.Seen(1, pub, d, sig) {
		t.Fatal("miss after Note")
	}

	// Different signature over the same (signer, digest) must miss: the
	// full signature is part of the key (anti-poisoning — a forged sig can
	// never ride a cached good one).
	forged := make([]byte, SignatureSize)
	forged[0] = 0xff
	if c.Seen(1, pub, d, forged) {
		t.Fatal("forged signature hit the cache")
	}
	// Different signer, same digest and sig: also a miss.
	if c.Seen(2, pub, d, sig) {
		t.Fatal("wrong signer hit the cache")
	}

	// Overfill: per-shard LRU bound must evict, never grow unbounded.
	for i := 0; i < 500; i++ {
		c.Note(1, pub, Hash([]byte(fmt.Sprintf("m%d", i))), sig)
	}
	if c.Len() > 16 {
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
	if cc.CacheEvictions.Load() == 0 {
		t.Fatal("no evictions recorded after overfill")
	}

	// Wrong-length signatures never enter or match.
	c.Note(1, pub, d, sig[:10])
	if c.Seen(1, pub, d, sig[:10]) {
		t.Fatal("short signature cached")
	}

	// Nil cache is inert.
	var nilCache *VerifyCache
	nilCache.Note(1, pub, d, sig)
	if nilCache.Seen(1, pub, d, sig) || nilCache.Len() != 0 {
		t.Fatal("nil cache not inert")
	}
}

func TestVerifyCacheLRUOrder(t *testing.T) {
	// One shard's worth of traffic: craft digests landing in shard 0.
	c := NewVerifyCache(16, nil) // 2 per shard
	sig := make([]byte, SignatureSize)
	pub := make(ed25519.PublicKey, ed25519.PublicKeySize)
	shard0 := func(tag byte) Digest {
		var d Digest
		d[0] = 0 // shard selector byte
		d[1] = tag
		return d
	}
	a, b2, e := shard0(1), shard0(2), shard0(3)
	c.Note(1, pub, a, sig)
	c.Note(1, pub, b2, sig)
	c.Seen(1, pub, a, sig) // refresh a; b2 is now LRU
	c.Note(1, pub, e, sig) // evicts b2
	if !c.Seen(1, pub, a, sig) {
		t.Fatal("refreshed entry evicted")
	}
	if c.Seen(1, pub, b2, sig) {
		t.Fatal("LRU entry survived eviction")
	}
	if !c.Seen(1, pub, e, sig) {
		t.Fatal("new entry missing")
	}
}

// TestRegistryVerifyCached checks the Registry.Verify fast path: the second
// verification of the same triple must not run the curve.
func TestRegistryVerifyCached(t *testing.T) {
	kp := MustGenerateKeyPair(0)
	cc := &metrics.CryptoCounters{}
	reg := NewRegistry(kp).Accelerated(NewVerifyCache(0, cc), true, cc)

	msg := []byte("juridical record")
	sig := kp.Sign(msg)
	for i := 0; i < 3; i++ {
		if err := reg.Verify(kp.ID, msg, sig); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	if cc.ScalarVerifies.Load() != 1 {
		t.Fatalf("expected 1 scalar verify, got %d", cc.ScalarVerifies.Load())
	}
	if cc.CacheHits.Load() != 2 {
		t.Fatalf("expected 2 cache hits, got %d", cc.CacheHits.Load())
	}

	// A failed verification must not be cached.
	bad := make([]byte, SignatureSize)
	for i := 0; i < 2; i++ {
		if err := reg.Verify(kp.ID, msg, bad); err == nil {
			t.Fatal("bad signature accepted")
		}
	}
	if cc.ScalarVerifies.Load() != 3 {
		t.Fatalf("bad signature was cached: %d scalar verifies", cc.ScalarVerifies.Load())
	}
}

// TestSignSeedsCache checks satellite #1's mechanism: a key pair bound to a
// cache via WithCache marks its own signatures verified at Sign time, so the
// signer never re-verifies its own output.
func TestSignSeedsCache(t *testing.T) {
	kp := MustGenerateKeyPair(0)
	cc := &metrics.CryptoCounters{}
	cache := NewVerifyCache(0, cc)
	reg := NewRegistry(kp).Accelerated(cache, true, cc)
	signer := kp.WithCache(cache)

	msg := []byte("self-signed proposal")
	sig := signer.Sign(msg)
	if err := reg.Verify(kp.ID, msg, sig); err != nil {
		t.Fatalf("verify own signature: %v", err)
	}
	if cc.ScalarVerifies.Load() != 0 {
		t.Fatalf("own signature cost %d scalar verifies, want 0", cc.ScalarVerifies.Load())
	}

	// The original pair stays cache-free.
	sig2 := kp.Sign([]byte("other"))
	if cache.Seen(kp.ID, kp.Public, Hash([]byte("other")), sig2) {
		t.Fatal("unbound key pair seeded the cache")
	}
}

// TestVerifyCacheKeyRotation checks that cached verifications die with the
// key they were proved under: after Registry.Add replaces a node's public
// key, signatures verified under the old key must not keep validating via
// cache hits — the public key is part of the cache key, so they miss and
// fall through to a real (failing) verify.
func TestVerifyCacheKeyRotation(t *testing.T) {
	old := MustGenerateKeyPair(7)
	cc := &metrics.CryptoCounters{}
	reg := NewRegistry(old).Accelerated(NewVerifyCache(0, cc), true, cc)

	msg := []byte("signed before the key changed")
	sig := old.Sign(msg)
	if err := reg.Verify(old.ID, msg, sig); err != nil {
		t.Fatalf("verify under original key: %v", err)
	}
	if err := reg.Verify(old.ID, msg, sig); err != nil {
		t.Fatalf("cached verify under original key: %v", err)
	}
	if cc.CacheHits.Load() != 1 {
		t.Fatalf("expected 1 cache hit before rotation, got %d", cc.CacheHits.Load())
	}

	// Replace the key. The old signature is now invalid and must be
	// re-checked for real, not served from the cache.
	reg.Add(old.ID, MustGenerateKeyPair(7).Public)
	hits, scalar := cc.CacheHits.Load(), cc.ScalarVerifies.Load()
	if err := reg.Verify(old.ID, msg, sig); err == nil {
		t.Fatal("old-key signature still accepted after key rotation")
	}
	if cc.CacheHits.Load() != hits {
		t.Fatal("old-key signature hit the cache after key rotation")
	}
	if got := cc.ScalarVerifies.Load(); got != scalar+1 {
		t.Fatalf("expected a real verify after rotation, got %d -> %d scalar verifies",
			scalar, got)
	}

	// Batch path sees the rotation too: a BatchVerifier entry for the old
	// signature must fail, not cache-hit.
	bv := reg.NewBatchVerifier(1)
	bv.Add(old.ID, msg, sig)
	if failed := bv.Verify(); len(failed) != 1 {
		t.Fatalf("batch accepted old-key signature after rotation: %v", failed)
	}
}

// TestVerifyCacheConcurrent hammers one cache from many goroutines mixing
// hits, misses, inserts and evictions — the lock-striping must hold up under
// the race detector (this test is part of the `make check` race run).
func TestVerifyCacheConcurrent(t *testing.T) {
	cc := &metrics.CryptoCounters{}
	c := NewVerifyCache(64, cc)
	kp := MustGenerateKeyPair(0)
	reg := NewRegistry(kp).Accelerated(c, true, cc)

	msgs := make([][]byte, 32)
	sigs := make([][]byte, 32)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("concurrent %d", i))
		sigs[i] = kp.Sign(msgs[i])
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j := (g*31 + i) % len(msgs)
				if err := reg.Verify(kp.ID, msgs[j], sigs[j]); err != nil {
					t.Errorf("verify: %v", err)
					return
				}
				// Unique inserts to force LRU churn alongside the hits.
				c.Note(kp.ID, kp.Public, Hash([]byte(fmt.Sprintf("churn %d %d", g, i))), sigs[j])
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache exceeded bound under concurrency: %d", c.Len())
	}
}

// TestBatchVerifyConcurrentCache runs batch verifiers on pool workers sharing
// one cache — the production shape (VerifyRequestDeep chunks on VerifyPool).
func TestBatchVerifyConcurrentCache(t *testing.T) {
	cc := &metrics.CryptoCounters{}
	cache := NewVerifyCache(0, cc)
	kps := []*KeyPair{MustGenerateKeyPair(0), MustGenerateKeyPair(1)}
	reg := NewRegistry(kps...).Accelerated(cache, true, cc)
	pool := NewVerifyPool(4)
	defer pool.Close()

	msgs := make([][]byte, 128)
	sigs := make([][]byte, 128)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("pooled %d", i))
		sigs[i] = kps[i%2].Sign(msgs[i])
	}
	for round := 0; round < 4; round++ {
		pool.RunChunks(len(msgs), 16, func(lo, hi int) {
			bv := reg.NewBatchVerifier(hi - lo)
			for i := lo; i < hi; i++ {
				bv.Add(kps[i%2].ID, msgs[i], sigs[i])
			}
			if failed := bv.Verify(); failed != nil {
				t.Errorf("chunk [%d,%d): failures %v", lo, hi, failed)
			}
		})
	}
	if cc.BatchedSigs.Load() != 128 {
		t.Fatalf("expected 128 batched sigs (first round only), got %d", cc.BatchedSigs.Load())
	}
	if cc.CacheHits.Load() != 3*128 {
		t.Fatalf("expected 384 cache hits (three retransmit rounds), got %d", cc.CacheHits.Load())
	}
}

// TestVerifyCacheMatchesReferenceLRU drives the cache with a random mix of
// Seen and Note over a small key universe and checks every answer against a
// plain slice-based LRU per shard, so hits, refreshes and evictions follow
// exact LRU order through slot reuse and bucket-chain unlinking.
func TestVerifyCacheMatchesReferenceLRU(t *testing.T) {
	const perShard = 3
	c := NewVerifyCache(perShard*verifyCacheShards, nil)
	pub := make(ed25519.PublicKey, ed25519.PublicKeySize)
	sig := make([]byte, SignatureSize)
	keys := make([]Digest, 40)
	for i := range keys {
		keys[i] = Hash([]byte(fmt.Sprintf("key %d", i)))
	}
	ref := make([][]Digest, verifyCacheShards) // front = most recent
	touch := func(s int, d Digest) bool {
		for i, k := range ref[s] {
			if k == d {
				copy(ref[s][1:i+1], ref[s][:i])
				ref[s][0] = d
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 20000; op++ {
		d := keys[rng.Intn(len(keys))]
		s := int(d[0]) & (verifyCacheShards - 1)
		if rng.Intn(2) == 0 {
			if got, want := c.Seen(1, pub, d, sig), touch(s, d); got != want {
				t.Fatalf("op %d: Seen = %v, reference LRU says %v", op, got, want)
			}
			continue
		}
		c.Note(1, pub, d, sig)
		if !touch(s, d) {
			ref[s] = append([]Digest{d}, ref[s]...)
			if len(ref[s]) > perShard {
				ref[s] = ref[s][:perShard]
			}
		}
	}
	n := 0
	for _, r := range ref {
		n += len(r)
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, reference holds %d", c.Len(), n)
	}
}

// TestVerifyCacheNoteFullDoesNotAllocate guards the steady state of a full
// cache: evicting the least recently used entry and inserting the new one
// reuses its slot.
func TestVerifyCacheNoteFullDoesNotAllocate(t *testing.T) {
	c := NewVerifyCache(64, nil)
	pub := make(ed25519.PublicKey, ed25519.PublicKeySize)
	sig := make([]byte, SignatureSize)
	digests := make([]Digest, 256)
	for i := range digests {
		digests[i] = Hash([]byte(fmt.Sprintf("note %d", i)))
		c.Note(1, pub, digests[i], sig)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		c.Note(1, pub, digests[i%len(digests)], sig)
		i++
	}); n != 0 {
		t.Errorf("Note on a full cache allocates %v times per call, want 0", n)
	}
}

// BenchmarkVerifyCacheNote measures inserting into a full default-sized
// cache, every insert evicting the least recently used entry of its shard.
func BenchmarkVerifyCacheNote(b *testing.B) {
	c := NewVerifyCache(0, nil)
	pub := make(ed25519.PublicKey, ed25519.PublicKeySize)
	sig := make([]byte, SignatureSize)
	digests := make([]Digest, 4*DefaultVerifyCacheSize)
	for i := range digests {
		digests[i] = Hash([]byte(fmt.Sprintf("note %d", i)))
		c.Note(1, pub, digests[i], sig)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c.Note(1, pub, digests[i%len(digests)], sig)
		i++
	}
}
