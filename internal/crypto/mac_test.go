package crypto

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"testing"

	"zugchain/internal/crypto/edwards25519"
)

// TestBytesMontgomeryMatchesX25519 checks the Edwards-to-Montgomery map the
// pairwise keys rest on: the u-coordinate of an Ed25519 public key is the
// X25519 public key of the same secret scalar, SHA-512(seed)[:32].
func TestBytesMontgomeryMatchesX25519(t *testing.T) {
	for i := 0; i < 32; i++ {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		A, err := new(edwards25519.Point).SetBytes(pub)
		if err != nil {
			t.Fatal(err)
		}
		h := sha512.Sum512(priv.Seed())
		x, err := ecdh.X25519().NewPrivateKey(h[:32])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := A.BytesMontgomery(), x.PublicKey().Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("key %d: BytesMontgomery = %x, X25519 public key = %x", i, got, want)
		}
	}
}

// TestPairwiseKeySymmetricAndDistinct: both ends of a pair derive the same
// key, and no two pairs of a cluster share one.
func TestPairwiseKeySymmetricAndDistinct(t *testing.T) {
	const n = 5
	kps := make([]*KeyPair, n)
	for i := range kps {
		kps[i] = MustGenerateKeyPair(NodeID(i))
	}
	seen := make(map[string][2]int)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			kij, err := kps[i].PairwiseKey(kps[j].ID, kps[j].Public)
			if err != nil {
				t.Fatal(err)
			}
			kji, err := kps[j].PairwiseKey(kps[i].ID, kps[i].Public)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(kij, kji) || len(kij) != 32 {
				t.Fatalf("pair %d-%d: keys differ by direction: %x vs %x", i, j, kij, kji)
			}
			if prev, dup := seen[string(kij)]; dup {
				t.Fatalf("pairs %v and %d-%d derived the same key", prev, i, j)
			}
			seen[string(kij)] = [2]int{i, j}
		}
	}
}

// TestPairwiseKeyBindsIDs: the same key material under different IDs
// derives a different key, since both IDs enter HKDF's info string.
func TestPairwiseKeyBindsIDs(t *testing.T) {
	a, b := MustGenerateKeyPair(0), MustGenerateKeyPair(1)
	k01, err := a.PairwiseKey(1, b.Public)
	if err != nil {
		t.Fatal(err)
	}
	k02, err := a.PairwiseKey(2, b.Public)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k01, k02) {
		t.Fatal("pairwise key ignores the peer ID")
	}
}

// TestPairwiseKeyRejectsSmallOrderPeer: a peer key of small order would
// make the shared secret all zeros, known to everyone.
func TestPairwiseKeyRejectsSmallOrderPeer(t *testing.T) {
	kp := MustGenerateKeyPair(0)
	identity := edwards25519.NewIdentityPoint().Bytes()
	if _, err := kp.PairwiseKey(1, identity); err == nil {
		t.Fatal("pairwise key accepted the identity point as a peer key")
	}
}

// TestMACKeyMatchesHMAC: the precomputed-pad tag is HMAC-SHA-256 truncated
// to MACSize bytes, for short keys, block-sized keys and keys longer than a
// block, and Check accepts exactly that tag.
func TestMACKeyMatchesHMAC(t *testing.T) {
	for _, keyLen := range []int{16, 32, 64, 65, 100} {
		key := make([]byte, keyLen)
		rand.Read(key)
		k := NewMACKey(key)
		for _, msgLen := range []int{0, 1, 59, 64, 200} {
			msg := make([]byte, msgLen)
			rand.Read(msg)
			m := hmac.New(sha256.New, key)
			m.Write(msg)
			want := m.Sum(nil)[:MACSize]
			got := make([]byte, MACSize)
			k.Tag(got, msg)
			if !bytes.Equal(got, want) {
				t.Fatalf("key %d B, msg %d B: tag %x, HMAC-SHA-256-128 %x", keyLen, msgLen, got, want)
			}
			if !k.Check(msg, want) {
				t.Fatalf("key %d B, msg %d B: Check rejected the right tag", keyLen, msgLen)
			}
			bad := append([]byte(nil), want...)
			bad[MACSize-1] ^= 1
			if k.Check(msg, bad) || k.Check(msg, want[:MACSize-1]) || k.Check(msg, append(want, 0)) {
				t.Fatalf("key %d B, msg %d B: Check accepted a wrong tag", keyLen, msgLen)
			}
		}
	}
}
