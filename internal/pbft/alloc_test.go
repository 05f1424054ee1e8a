package pbft

import (
	"testing"

	"zugchain/internal/crypto"
)

// TestRequestDigestDoesNotAllocate guards the request identity every
// replica computes for every proposal: no allocation once the encoder pool
// is warm, for a recorder-sized record and for a batch.
func TestRequestDigestDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for name, r := range goldenRequests() {
		r.Digest()
		if n := testing.AllocsPerRun(100, func() { r.Digest() }); n != 0 {
			t.Errorf("%s: Request.Digest allocates %v times per call, want 0", name, n)
		}
	}
}

// TestEncodePreparedProofAllocatesOnce guards the certificate written to
// the WAL before every outbound commit: one allocation, at the exact size.
func TestEncodePreparedProofAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	p := goldenProof()
	EncodePreparedProof(p)
	if n := testing.AllocsPerRun(100, func() { EncodePreparedProof(p) }); n > 1 {
		t.Errorf("EncodePreparedProof allocates %v times per call, want at most 1", n)
	}
}

// BenchmarkRequestDigest measures the digest of a recorder-sized signed
// request (1 KB payload, 64-byte signature).
func BenchmarkRequestDigest(b *testing.B) {
	r := &Request{Payload: make([]byte, 1024), Origin: 1, Sig: make([]byte, crypto.SignatureSize)}
	b.ReportAllocs()
	for b.Loop() {
		r.Digest()
	}
}
