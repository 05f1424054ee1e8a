package crypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/subtle"

	"zugchain/internal/crypto/edwards25519"
)

// minBatchEquation is the smallest number of well-formed signatures worth
// settling through the multi-scalar equation. Below it the shared-doubling
// saving does not cover the per-batch setup, so Verify falls back to
// sequential scalar verifies.
const minBatchEquation = 2

// zScalarBytes is the size of the random blinding coefficients z_i: 128 bits
// keep the probability that a wrong signature slips through a batch at 2^-128
// while halving the NAF length versus full-width scalars.
const zScalarBytes = 16

type batchEntry struct {
	pub ed25519.PublicKey
	bad bool // structurally invalid: known bad without curve work

	// Parsed by Add unless bad.
	A *edwards25519.Point  // signer public key
	R *edwards25519.Point  // signature commitment, canonical encoding
	S *edwards25519.Scalar // signature scalar, canonical
	k *edwards25519.Scalar // SHA-512(R ‖ A ‖ M) challenge
	z *edwards25519.Scalar // random batch coefficient, set in Verify
}

// BatchVerifier settles N Ed25519 signature checks in one multi-scalar
// multiplication pass. Instead of N independent double-scalar
// multiplications it draws random 128-bit coefficients z_i and checks the
// single cofactored equation
//
//	[8]( Σ z_i·R_i + Σ (z_i·k_i)·A_i − (Σ z_i·s_i)·B )  ==  identity
//
// whose 256 accumulator doublings are shared across all terms (Straus'
// trick). A batch that fails bisects — halves re-checked by the same
// equation, single-entry leaves by VerifySignature's equation — so Verify
// always pinpoints exactly which signatures are corrupt.
//
// The multiplication by the cofactor 8 is what makes batching sound: it
// clears small-order torsion components identically here and in the
// single-signature equation, so the batch accept set equals VerifySignature's
// except with probability 2^-128 over the z_i — independent of torsion
// defects an adversarial signer may plant (see VerifySignature for why the
// cofactorless crypto/ed25519.Verify equation cannot be batched). Canonical
// encodings of R and s are still required, checked at Add time.
// Structurally invalid entries are settled at Add time and never touch the
// curve.
//
// A BatchVerifier is single-use and not safe for concurrent use.
type BatchVerifier struct {
	reg     *Registry
	entries []batchEntry
}

// NewBatchVerifier returns a verifier for signatures against r's key set,
// pre-sized for capacity entries.
func (r *Registry) NewBatchVerifier(capacity int) *BatchVerifier {
	return &BatchVerifier{reg: r, entries: make([]batchEntry, 0, capacity)}
}

// Add queues one (signer, message, signature) check. Malformed inputs
// (unknown signer, bad lengths, non-canonical or invalid encodings) are
// recorded as failed immediately; they surface in Verify's result.
func (v *BatchVerifier) Add(id NodeID, msg, sig []byte) {
	v.entries = append(v.entries, batchEntry{})
	e := &v.entries[len(v.entries)-1]

	pub, ok := v.reg.PublicKey(id)
	if !ok || len(sig) != ed25519.SignatureSize || len(pub) != ed25519.PublicKeySize {
		e.bad = true
		return
	}
	e.pub = pub

	// Parse the curve elements, mirroring VerifySignature's structural
	// rejections exactly: undecodable keys and commitments, a non-canonical
	// R encoding (SetBytes accepts them, the round-trip comparison rejects),
	// and a non-canonical s all fail on both paths.
	e.A = new(edwards25519.Point)
	e.R = new(edwards25519.Point)
	e.S = new(edwards25519.Scalar)
	if _, err := e.A.SetBytes(pub); err != nil {
		e.bad = true
		return
	}
	if _, err := e.R.SetBytes(sig[:32]); err != nil {
		e.bad = true
		return
	}
	if subtle.ConstantTimeCompare(e.R.Bytes(), sig[:32]) != 1 {
		e.bad = true
		return
	}
	if _, err := e.S.SetCanonicalBytes(sig[32:]); err != nil {
		e.bad = true
		return
	}
	e.k = challengeScalar(sig[:32], pub, msg)
}

// Len reports how many checks have been queued.
func (v *BatchVerifier) Len() int { return len(v.entries) }

// Verify settles every queued check and returns the indices (in Add order,
// ascending) of the signatures that failed, or nil if all are valid. The
// verifier must not be reused afterwards.
func (v *BatchVerifier) Verify() []int {
	var failed []int
	live := make([]*batchEntry, 0, len(v.entries))
	liveIdx := make([]int, 0, len(v.entries))
	for i := range v.entries {
		e := &v.entries[i]
		if e.bad {
			failed = append(failed, i)
		} else {
			live = append(live, e)
			liveIdx = append(liveIdx, i)
		}
	}

	if len(live) < minBatchEquation || !v.assignCoefficients(live) {
		for j, e := range live {
			if !v.scalarVerify(e) {
				failed = append(failed, liveIdx[j])
			}
		}
		sortInts(failed)
		return failed
	}

	v.reg.cc.RecordBatch(len(live))
	if !batchCheck(live) {
		for _, j := range v.bisect(live) {
			failed = append(failed, liveIdx[j])
		}
	}
	sortInts(failed)
	return failed
}

// assignCoefficients draws the random 128-bit z_i for every live entry in one
// bulk read. It reports false if system randomness is unavailable, in which
// case the caller must fall back to scalar verification (a predictable z
// would let an attacker craft cancelling wrong signatures).
func (v *BatchVerifier) assignCoefficients(live []*batchEntry) bool {
	buf := make([]byte, zScalarBytes*len(live))
	if _, err := rand.Read(buf); err != nil {
		return false
	}
	var wide [32]byte
	for j, e := range live {
		copy(wide[:zScalarBytes], buf[j*zScalarBytes:(j+1)*zScalarBytes])
		if wide == ([32]byte{}) {
			wide[0] = 1 // z must be nonzero or the entry goes unchecked
		}
		e.z = new(edwards25519.Scalar)
		if _, err := e.z.SetCanonicalBytes(wide[:]); err != nil {
			return false // unreachable: 2^128-1 < group order
		}
	}
	return true
}

// batchCheck evaluates the combined equation over entries, which must all
// have parsed curve elements and coefficients assigned. Rearranged for the
// multiscalar primitive: with bCoeff = −Σ z_i·s_i the equation holds iff
//
//	[8]( bCoeff·B + Σ z_i·R_i + Σ (z_i·k_i)·A_i )  ==  identity,
//
// the final MultByCofactor clearing any small-order torsion exactly as
// VerifySignature's single equation does.
//
// Entries signed by the same public key share one A term with coefficient
// Σ z_i·k_i — algebraically identical, but it collapses the dominant cost of
// the A side (full-width NAF additions plus a lookup table per point) to one
// per distinct signer. In a consensus batch the signers are the handful of
// cluster replicas, so this halves the equation's dynamic points.
func batchCheck(entries []*batchEntry) bool {
	bCoeff := new(edwards25519.Scalar)
	scalars := make([]*edwards25519.Scalar, 0, len(entries)+4)
	points := make([]*edwards25519.Point, 0, len(entries)+4)
	byKey := make(map[[ed25519.PublicKeySize]byte]*edwards25519.Scalar, 4)
	for _, e := range entries {
		bCoeff.MultiplyAdd(e.z, e.S, bCoeff)
		scalars = append(scalars, e.z)
		points = append(points, e.R)
		var key [ed25519.PublicKeySize]byte
		copy(key[:], e.pub)
		if acc := byKey[key]; acc != nil {
			acc.MultiplyAdd(e.z, e.k, acc)
		} else {
			zk := new(edwards25519.Scalar).Multiply(e.z, e.k)
			byKey[key] = zk
			scalars = append(scalars, zk)
			points = append(points, e.A)
		}
	}
	bCoeff.Negate(bCoeff)
	p := new(edwards25519.Point).VarTimeMultiScalarBaseMult(bCoeff, scalars, points)
	p.MultByCofactor(p)
	return p.Equal(edwards25519.NewIdentityPoint()) == 1
}

// bisect pinpoints the corrupt entries of a batch that failed batchCheck,
// returning their positions within live. Halves are re-tested with the batch
// equation (reusing the already-drawn z_i); single entries are settled by
// the cofactored single equation, which is the ground truth — so the result
// is exact, never probabilistic.
func (v *BatchVerifier) bisect(live []*batchEntry) []int {
	if len(live) == 1 {
		if v.scalarVerify(live[0]) {
			return nil
		}
		return []int{0}
	}
	v.reg.cc.AddBisection()
	mid := len(live) / 2
	var failed []int
	half := func(entries []*batchEntry, offset int) {
		if len(entries) >= minBatchEquation {
			v.reg.cc.RecordBatch(len(entries))
			if batchCheck(entries) {
				return
			}
		}
		for _, j := range v.bisect(entries) {
			failed = append(failed, offset+j)
		}
	}
	half(live[:mid], 0)
	half(live[mid:], mid)
	return failed
}

// scalarVerify settles one parsed entry with the cofactored single equation
// (VerifySignature's accept set).
func (v *BatchVerifier) scalarVerify(e *batchEntry) bool {
	v.reg.cc.AddScalarVerify()
	return cofactoredEqual(e.A, e.R, e.S, e.k)
}

// sortInts is an insertion sort for the (short, nearly sorted) failed-index
// slices, avoiding a sort package dependency on the hot path.
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
