package pbft

import (
	"testing"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
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

// TestCommitMACDoesNotAllocate guards the per-Commit authenticator:
// tagging a Commit for a peer and checking a received tag allocate nothing
// once the encoder and hasher pools are warm, and a whole per-peer
// broadcast allocates only its encodings and their send list.
func TestCommitMACDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	c := newCluster(t, 4, nil)
	own := &Commit{View: 0, Seq: 1, Digest: crypto.Hash([]byte("alloc")), Replica: 0}
	tagged := *own
	tagged.MAC = make([]byte, crypto.MACSize)
	tag := func() {
		enc := wire.GetEncoder()
		c.engines[0].macs[1].Tag(tagged.MAC, commitAuthBytesInto(enc, own, 1))
		wire.PutEncoder(enc)
	}
	check := func() {
		if !c.engines[1].authenticCommit(&tagged) {
			t.Fatal("tag does not check")
		}
	}
	tag()
	check()
	if n := testing.AllocsPerRun(100, tag); n != 0 {
		t.Errorf("tagging a Commit allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, check); n != 0 {
		t.Errorf("checking a Commit allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.engines[0].commitBroadcast(own) }); n > 2 {
		t.Errorf("commitBroadcast allocates %v times, want at most 2", n)
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
