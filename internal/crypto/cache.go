package crypto

import (
	"crypto/ed25519"
	"hash/maphash"
	"sync"

	"zugchain/internal/metrics"
)

// DefaultVerifyCacheSize is the per-node capacity of the verified-signature
// cache when the operator does not override it. 4096 entries cover several
// in-flight protocol rounds of a 4–16 replica cluster with headroom for
// retransmits; the table is allocated up front at ~150 bytes per entry, under
// a megabyte.
const DefaultVerifyCacheSize = 4096

// verifyCacheShards splits the cache into independently locked shards so pool
// workers verifying different messages rarely contend. Must be a power of two.
const verifyCacheShards = 8

// cacheKey identifies one successful verification. The full signature is part
// of the key on purpose: an attacker replaying a known-good (signer, digest)
// pair with a forged signature misses the cache and falls through to a real
// verify, so a cache entry can never launder a bad signature (anti-poisoning).
// The public key the signature verified under is part of the key too, so if
// Registry.Add ever replaces a node's key, every entry proved under the old
// key silently stops hitting — no invalidation protocol needed, across every
// Accelerated view sharing the key set.
type cacheKey struct {
	id  NodeID
	pub [ed25519.PublicKeySize]byte
	d   Digest
	sig [SignatureSize]byte
}

// cacheEntry is one slot of a shard's preallocated table. Entries link
// into two lists by index: the shard's LRU order (prev/next) and the chain
// of their hash bucket (chain). noEntry ends a list.
type cacheEntry struct {
	key        cacheKey
	prev, next int32
	chain      int32
	bucket     uint32
}

const noEntry = -1

// cacheShard is a bounded LRU without per-entry allocations: entries live
// in one slice allocated up front, found through index-chained hash buckets
// and ordered by an index-linked list. Once full, an insert reuses the least
// recently used slot in place.
type cacheShard struct {
	mu         sync.Mutex
	entries    []cacheEntry // len grows to cap(entries), then slots recycle
	buckets    []int32      // chain heads; len is a power of two
	head, tail int32        // most and least recently used
}

// VerifyCache memoizes successful Ed25519 verifications so retransmitted
// messages, NEWVIEW re-proposals, and state-transfer re-validation skip the
// scalar multiplication entirely. It is a sharded, lock-striped, bounded LRU;
// all methods are safe for concurrent use and nil-safe (a nil cache never
// hits and never stores). A full cache evicts and inserts without
// allocating.
//
// Entries are inserted only on the two trusted paths — after a verification
// actually succeeded (Registry.Verify, BatchVerifier) or when this node signed
// the bytes itself (KeyPair.Sign with WithCache) — never on receipt of
// unverified data.
type VerifyCache struct {
	shards [verifyCacheShards]cacheShard
	// seed keys the bucket hash, so a signer grinding message digests
	// cannot pile its entries into one bucket chain.
	seed maphash.Seed
	cc   *metrics.CryptoCounters
}

// NewVerifyCache returns a cache bounded to capacity entries overall.
// capacity <= 0 selects DefaultVerifyCacheSize. cc may be nil.
func NewVerifyCache(capacity int, cc *metrics.CryptoCounters) *VerifyCache {
	if capacity <= 0 {
		capacity = DefaultVerifyCacheSize
	}
	c := &VerifyCache{seed: maphash.MakeSeed(), cc: cc}
	// Distribute the bound across shards, rounding up so small capacities
	// still admit at least one entry per shard.
	per := (capacity + verifyCacheShards - 1) / verifyCacheShards
	buckets := 1
	for buckets < per {
		buckets <<= 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.entries = make([]cacheEntry, 0, per)
		s.buckets = make([]int32, buckets)
		for b := range s.buckets {
			s.buckets[b] = noEntry
		}
		s.head, s.tail = noEntry, noEntry
	}
	return c
}

// locate returns k's shard and bucket.
func (c *VerifyCache) locate(k *cacheKey) (*cacheShard, uint32) {
	// The digest is already uniform (SHA-256), so its low bits pick a shard.
	s := &c.shards[uint(k.d[0])&(verifyCacheShards-1)]
	return s, uint32(maphash.Bytes(c.seed, k.d[:])) & uint32(len(s.buckets)-1)
}

// find returns the slot holding k in bucket b, or noEntry.
func (s *cacheShard) find(k *cacheKey, b uint32) int32 {
	for i := s.buckets[b]; i != noEntry; i = s.entries[i].chain {
		if s.entries[i].key == *k {
			return i
		}
	}
	return noEntry
}

// unlink removes slot i from the LRU order.
func (s *cacheShard) unlink(i int32) {
	e := &s.entries[i]
	if e.prev != noEntry {
		s.entries[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next != noEntry {
		s.entries[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// touch moves slot i to the front of the LRU order.
func (s *cacheShard) touch(i int32) {
	if i != s.head {
		s.unlink(i)
		s.pushFront(i)
	}
}

// pushFront makes slot i the most recently used.
func (s *cacheShard) pushFront(i int32) {
	e := &s.entries[i]
	e.prev, e.next = noEntry, s.head
	if s.head != noEntry {
		s.entries[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// unchain removes slot i from its bucket chain.
func (s *cacheShard) unchain(i int32) {
	p := &s.buckets[s.entries[i].bucket]
	for *p != i {
		p = &s.entries[*p].chain
	}
	*p = s.entries[i].chain
}

// Seen reports whether (id, digest, sig) was previously verified under pub,
// refreshing its LRU position on a hit.
func (c *VerifyCache) Seen(id NodeID, pub ed25519.PublicKey, d Digest, sig []byte) bool {
	if c == nil || len(sig) != SignatureSize || len(pub) != ed25519.PublicKeySize {
		return false
	}
	k := cacheKey{id: id, d: d}
	copy(k.pub[:], pub)
	copy(k.sig[:], sig)
	s, b := c.locate(&k)
	s.mu.Lock()
	i := s.find(&k, b)
	if i != noEntry {
		s.touch(i)
	}
	s.mu.Unlock()
	if i != noEntry {
		c.cc.AddCacheHit()
	} else {
		c.cc.AddCacheMiss()
	}
	return i != noEntry
}

// Note records a successful verification of (id, digest, sig) under pub,
// evicting the least recently used entry of the shard if it is full. Callers
// must only invoke it after sig actually verified (or was produced locally).
func (c *VerifyCache) Note(id NodeID, pub ed25519.PublicKey, d Digest, sig []byte) {
	if c == nil || len(sig) != SignatureSize || len(pub) != ed25519.PublicKeySize {
		return
	}
	k := cacheKey{id: id, d: d}
	copy(k.pub[:], pub)
	copy(k.sig[:], sig)
	s, b := c.locate(&k)
	s.mu.Lock()
	if i := s.find(&k, b); i != noEntry {
		s.touch(i)
		s.mu.Unlock()
		return
	}
	evicted := false
	var i int32
	if len(s.entries) < cap(s.entries) {
		i = int32(len(s.entries))
		s.entries = s.entries[:i+1]
	} else {
		i = s.tail
		s.unlink(i)
		s.unchain(i)
		evicted = true
	}
	s.entries[i].key = k
	s.entries[i].bucket = b
	s.entries[i].chain = s.buckets[b]
	s.buckets[b] = i
	s.pushFront(i)
	s.mu.Unlock()
	if evicted {
		c.cc.AddCacheEviction()
	}
}

// Len returns the current number of cached entries across all shards.
func (c *VerifyCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
