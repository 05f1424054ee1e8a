package crypto

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hkdf"
	"crypto/sha256"
	"crypto/sha512"
	"crypto/subtle"
	"encoding"
	"fmt"
	"hash"
	"sync"

	"zugchain/internal/crypto/edwards25519"
)

// MACSize is the length of a pairwise authenticator: HMAC-SHA-256
// truncated to its leftmost 128 bits (RFC 2104 §5, as in HMAC-SHA-256-128).
const MACSize = 16

// PairwiseKey derives the 32-byte symmetric key k shares with peer from the
// Ed25519 key material both already hold, so MACs need no keys beyond the
// keyring: X25519 between k's secret scalar SHA-512(seed)[:32] and peerPub
// mapped to its Montgomery u-coordinate, then HKDF-SHA-256 with both IDs,
// lower first, in the info string. The X25519 result is the same from
// either side, so PairwiseKey(a, b, B) == PairwiseKey(b, a, A). A peer key
// of small order yields an all-zero shared secret and an error.
func (k *KeyPair) PairwiseKey(peer NodeID, peerPub ed25519.PublicKey) ([]byte, error) {
	h := sha512.Sum512(k.private.Seed())
	priv, err := ecdh.X25519().NewPrivateKey(h[:32])
	if err != nil {
		return nil, fmt.Errorf("crypto: pairwise key %v-%v: %w", k.ID, peer, err)
	}
	A, err := new(edwards25519.Point).SetBytes(peerPub)
	if err != nil {
		return nil, fmt.Errorf("crypto: pairwise key %v-%v: peer key: %w", k.ID, peer, err)
	}
	pub, err := ecdh.X25519().NewPublicKey(A.BytesMontgomery())
	if err != nil {
		return nil, fmt.Errorf("crypto: pairwise key %v-%v: %w", k.ID, peer, err)
	}
	shared, err := priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("crypto: pairwise key %v-%v: %w", k.ID, peer, err)
	}
	lo, hi := k.ID, peer
	if lo > hi {
		lo, hi = hi, lo
	}
	return hkdf.Key(sha256.New, shared, nil, fmt.Sprintf("zugchain commit mac %d %d", lo, hi), 32)
}

// MACKey is an HMAC-SHA-256 key with its inner and outer pad blocks already
// absorbed: tagging hashes only the message, and allocates nothing once the
// hasher pool is warm. It is read-only after NewMACKey, so any number of
// goroutines may tag and check with it.
type MACKey struct {
	inner, outer []byte // SHA-256 states after key⊕ipad and key⊕opad
}

// NewMACKey precomputes the pad states of key (RFC 2104).
func NewMACKey(key []byte) *MACKey {
	var block [sha256.BlockSize]byte
	if len(key) > len(block) {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(block[:], key)
	state := func(pad byte) []byte {
		var b [sha256.BlockSize]byte
		for i := range b {
			b[i] = block[i] ^ pad
		}
		h := sha256.New()
		h.Write(b[:])
		s, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic(err) // SHA-256 state always marshals
		}
		return s
	}
	return &MACKey{inner: state(0x36), outer: state(0x5c)}
}

// macHasher is a pooled SHA-256 with room for a digest, so neither the
// hasher nor Sum's output escapes to the heap per tag.
type macHasher struct {
	h   hash.Hash
	buf [sha256.Size]byte
}

var macHashers = sync.Pool{New: func() any { return &macHasher{h: sha256.New()} }}

// sum computes the full HMAC-SHA-256 of msg under k into m.buf.
func (m *macHasher) sum(k *MACKey, msg []byte) []byte {
	u := m.h.(encoding.BinaryUnmarshaler)
	if err := u.UnmarshalBinary(k.inner); err != nil {
		panic(err) // states come from MarshalBinary of the same hash
	}
	m.h.Write(msg)
	inner := m.h.Sum(m.buf[:0])
	if err := u.UnmarshalBinary(k.outer); err != nil {
		panic(err)
	}
	m.h.Write(inner)
	return m.h.Sum(m.buf[:0])
}

// Tag writes the MACSize-byte tag of msg into dst[:MACSize].
func (k *MACKey) Tag(dst, msg []byte) {
	m := macHashers.Get().(*macHasher)
	copy(dst[:MACSize], m.sum(k, msg))
	macHashers.Put(m)
}

// Check reports, in constant time, whether tag is msg's tag under k.
func (k *MACKey) Check(msg, tag []byte) bool {
	if len(tag) != MACSize {
		return false
	}
	m := macHashers.Get().(*macHasher)
	ok := subtle.ConstantTimeCompare(m.sum(k, msg)[:MACSize], tag) == 1
	macHashers.Put(m)
	return ok
}
