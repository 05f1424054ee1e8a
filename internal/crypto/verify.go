package crypto

import (
	"crypto/ed25519"
	"crypto/sha512"
	"crypto/subtle"

	"zugchain/internal/crypto/edwards25519"
)

// VerifySignature is ZugChain's Ed25519 ground truth: it checks sig over msg
// under pub using the *cofactored* verification equation
//
//	[8]([s]B − [k]A − R) == identity,  k = SHA-512(R ‖ A ‖ M)
//
// with canonical-encoding requirements on R (its encoding must round-trip)
// and s (must be fully reduced mod the group order). Every verification path
// in the repository — Registry.Verify, the BatchVerifier's batch equation,
// and the bisection leaves — shares this accept set, which is what makes
// signature validity a deterministic, replica-independent predicate.
//
// Cofactored instead of crypto/ed25519.Verify's cofactorless equation on
// purpose: the cofactorless form is incompatible with batch verification. A
// signer who knows the private key can shift R by a small-order torsion
// point T (R' = R + T, s unchanged); cofactorless single verification
// rejects such a signature, but the z-weighted batch sum cancels the torsion
// whenever Σ z_i·T_i happens to vanish mod 8 — the same bytes would verify
// on one replica and fail on another depending on local randomness. The
// cofactored equation multiplies the torsion away identically in the single
// and batched forms (the ed25519consensus / ZIP-215 construction), so both
// paths accept the same set: such a torsion-shifted signature is *always*
// valid here, never probabilistically. Only the key holder can produce one
// (s must satisfy the equation over the prime-order component), so this is
// benign malleability by the signer, not a forgery vector.
//
// For honestly generated signatures (crypto/ed25519.Sign) the verdict always
// matches crypto/ed25519.Verify; the accept sets differ only on crafted
// small-order-torsion inputs, where this one is deterministic and the
// stdlib's batch-incompatible.
func VerifySignature(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	A := new(edwards25519.Point)
	if _, err := A.SetBytes(pub); err != nil {
		return false
	}
	R := new(edwards25519.Point)
	if _, err := R.SetBytes(sig[:32]); err != nil {
		return false
	}
	if subtle.ConstantTimeCompare(R.Bytes(), sig[:32]) != 1 {
		return false
	}
	S := new(edwards25519.Scalar)
	if _, err := S.SetCanonicalBytes(sig[32:]); err != nil {
		return false
	}
	var k edwards25519.Scalar
	challengeScalar(&k, sig[:32], pub, msg)
	return cofactoredEqual(A, R, S, &k)
}

// challengeScalar sets k to the Ed25519 challenge SHA-512(R ‖ A ‖ M)
// reduced mod the group order. The hash state and digest live on the stack
// and k is the caller's, so a verify allocates nothing.
func challengeScalar(k *edwards25519.Scalar, renc, pub, msg []byte) {
	h := sha512.New()
	h.Write(renc)
	h.Write(pub)
	h.Write(msg)
	var digest [64]byte
	// SetUniformBytes only errors on wrong input length; h.Sum is 64 bytes.
	k.SetUniformBytes(h.Sum(digest[:0]))
}

// cofactoredEqual evaluates [8]([s]B − [k]A − R) == identity for one
// already-parsed signature.
func cofactoredEqual(A, R *edwards25519.Point, S, k *edwards25519.Scalar) bool {
	kNeg := new(edwards25519.Scalar).Negate(k)
	p := new(edwards25519.Point).VarTimeDoubleScalarBaseMult(kNeg, A, S) // [s]B − [k]A
	p.Subtract(p, R)
	p.MultByCofactor(p)
	return p.Equal(edwards25519.NewIdentityPoint()) == 1
}
