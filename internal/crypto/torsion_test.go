package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"testing"

	"zugchain/internal/crypto/edwards25519"
)

// smallOrderPoint returns a canonical non-identity small-order point of the
// curve: (0, -1), of order 2. Adding it to a signature's R commitment plants
// a torsion defect that the cofactorless ed25519.Verify equation rejects but
// a cofactorless *batch* equation would cancel whenever the random z
// coefficients happen to sum to 0 mod the point's order — the
// nondeterminism this package's cofactored equation exists to rule out.
func smallOrderPoint(t *testing.T) *edwards25519.Point {
	t.Helper()
	enc := make([]byte, 32)
	enc[0] = 0xec // little-endian p-1: y = -1, x = 0
	for i := 1; i < 31; i++ {
		enc[i] = 0xff
	}
	enc[31] = 0x7f
	p, err := new(edwards25519.Point).SetBytes(enc)
	if err != nil {
		t.Fatalf("decode small-order point: %v", err)
	}
	if p.Equal(edwards25519.NewIdentityPoint()) == 1 {
		t.Fatal("small-order point is the identity")
	}
	if new(edwards25519.Point).Add(p, p).Equal(edwards25519.NewIdentityPoint()) != 1 {
		t.Fatal("point is not of order 2")
	}
	return p
}

// torsionSignature produces, with kp's private key, a signature over msg
// whose R commitment carries a small-order torsion component: R' = R + T,
// s = r + k'·a with k' recomputed over the shifted encoding. Only the key
// holder can build one (s must satisfy the equation over the prime-order
// component), so this is signer-side malleability, not a forgery.
func torsionSignature(t *testing.T, kp *KeyPair, msg []byte) []byte {
	t.Helper()

	// Expand the private scalar a exactly as Ed25519 key expansion does.
	h := sha512.Sum512(kp.private.Seed())
	a, err := new(edwards25519.Scalar).SetBytesWithClamping(h[:32])
	if err != nil {
		t.Fatalf("clamp private scalar: %v", err)
	}

	var wide [64]byte
	if _, err := rand.Read(wide[:]); err != nil {
		t.Fatalf("read nonce: %v", err)
	}
	r, err := new(edwards25519.Scalar).SetUniformBytes(wide[:])
	if err != nil {
		t.Fatalf("nonce scalar: %v", err)
	}

	R := new(edwards25519.Point).ScalarBaseMult(r)
	R.Add(R, smallOrderPoint(t)) // plant the torsion defect
	renc := R.Bytes()

	var k edwards25519.Scalar
	challengeScalar(&k, renc, kp.Public, msg)
	s := new(edwards25519.Scalar).MultiplyAdd(&k, a, r) // s = k·a + r

	return append(append([]byte{}, renc...), s.Bytes()...)
}

// TestTorsionSignatureDeterministic is the regression test for the batch
// soundness fix: a signature with a small-order torsion defect in R is
// rejected by the cofactorless crypto/ed25519.Verify, but under a
// cofactorless batch equation it would be *randomly* accepted (probability
// 1/order over the z coefficients) — two honest replicas could durably
// disagree on the same bytes. The cofactored equation used here must settle
// it identically on the scalar and batch paths, every time: always valid,
// deterministically, on both.
func TestTorsionSignatureDeterministic(t *testing.T) {
	kps := []*KeyPair{MustGenerateKeyPair(0), MustGenerateKeyPair(1)}
	reg := NewRegistry(kps...)
	msg := []byte("juridical record with a torsioned commitment")
	sig := torsionSignature(t, kps[0], msg)

	// Sanity: the defect is real — the stdlib's cofactorless equation
	// rejects these bytes.
	if ed25519.Verify(kps[0].Public, msg, sig) {
		t.Fatal("torsion signature unexpectedly passes ed25519.Verify; defect not planted")
	}

	// Scalar path: deterministically valid.
	if !VerifySignature(kps[0].Public, msg, sig) {
		t.Fatal("cofactored scalar verify rejected the torsion signature")
	}
	if err := reg.Verify(kps[0].ID, msg, sig); err != nil {
		t.Fatalf("Registry.Verify rejected the torsion signature: %v", err)
	}

	// Batch path: the verdict must agree with the scalar path on every run.
	// 64 trials redraw the random z coefficients each time; under the old
	// cofactorless batch equation the order-2 defect flipped the verdict
	// with probability 1/2 per trial, so a nondeterministic regression fails
	// this loop with probability 1 - 2^-64.
	for trial := 0; trial < 64; trial++ {
		bv := reg.NewBatchVerifier(8)
		for i := 0; i < 8; i++ {
			if i == 3 {
				bv.Add(kps[0].ID, msg, sig)
				continue
			}
			m := []byte{byte(trial), byte(i)}
			bv.Add(kps[i%2].ID, m, kps[i%2].Sign(m))
		}
		if failed := bv.Verify(); failed != nil {
			t.Fatalf("trial %d: batch verdict diverged from scalar path: failed=%v", trial, failed)
		}
	}

	// And the bisection ground truth agrees too: corrupt a different entry
	// so the batch fails and the torsion entry is settled by a bisection
	// leaf — it must still be valid, and only the corrupt index named.
	for trial := 0; trial < 16; trial++ {
		bv := reg.NewBatchVerifier(4)
		bv.Add(kps[0].ID, msg, sig)
		for i := 1; i < 4; i++ {
			m := []byte{0xff, byte(trial), byte(i)}
			s := kps[i%2].Sign(m)
			if i == 2 {
				s = bytes.Repeat([]byte{0x42}, SignatureSize) // corrupt
			}
			bv.Add(kps[i%2].ID, m, s)
		}
		if failed := bv.Verify(); len(failed) != 1 || failed[0] != 2 {
			t.Fatalf("trial %d: want failed=[2], got %v", trial, failed)
		}
	}
}

// TestMultByCofactor pins the vendored curve addition: 8·P must equal three
// doublings for a generic point, and must clear a small-order point to the
// identity.
func TestMultByCofactor(t *testing.T) {
	var wide [64]byte
	if _, err := rand.Read(wide[:]); err != nil {
		t.Fatalf("rand: %v", err)
	}
	s, err := new(edwards25519.Scalar).SetUniformBytes(wide[:])
	if err != nil {
		t.Fatalf("scalar: %v", err)
	}
	p := new(edwards25519.Point).ScalarBaseMult(s)

	want := new(edwards25519.Point).Add(p, p) // 2P
	want.Add(want, want)                      // 4P
	want.Add(want, want)                      // 8P
	got := new(edwards25519.Point).MultByCofactor(p)
	if got.Equal(want) != 1 {
		t.Fatal("MultByCofactor disagrees with three doublings")
	}

	small := smallOrderPoint(t)
	if new(edwards25519.Point).MultByCofactor(small).Equal(edwards25519.NewIdentityPoint()) != 1 {
		t.Fatal("MultByCofactor did not clear a small-order point")
	}
}
