package pbft

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zugchain/internal/crypto"
	"zugchain/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/encoding.golden from the current encodings")

// fixedBytes returns n deterministic bytes derived from seed.
func fixedBytes(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// goldenRequests are fixed requests: a recorder-sized signed record, a
// small unsigned one, and a signed batch of three records.
func goldenRequests() map[string]*Request {
	record := &Request{Payload: fixedBytes(1024, 1), Origin: 2, Sig: fixedBytes(crypto.SignatureSize, 9)}
	small := &Request{Payload: []byte("cycle-1"), Origin: 1}
	items := []Request{
		{Payload: []byte("rec-a"), Origin: 0, Sig: fixedBytes(crypto.SignatureSize, 3)},
		{Payload: []byte("rec-b"), Origin: 1, Sig: fixedBytes(crypto.SignatureSize, 4)},
		{Payload: fixedBytes(700, 5), Origin: 3, Sig: fixedBytes(crypto.SignatureSize, 6)},
	}
	batch := &Request{Payload: EncodeBatch(items), Origin: 0, Sig: fixedBytes(crypto.SignatureSize, 7), Batch: true}
	return map[string]*Request{"record": record, "small": small, "batch": batch}
}

func goldenProof() *PreparedProof {
	req := Request{Payload: []byte("cycle-7"), Origin: 3, Sig: fixedBytes(crypto.SignatureSize, 11)}
	p := &PreparedProof{PrePrepare: PrePrepare{View: 2, Seq: 41, Req: req, Replica: 2, Sig: fixedBytes(crypto.SignatureSize, 12)}}
	for _, id := range []crypto.NodeID{0, 1} {
		p.Prepares = append(p.Prepares, Prepare{
			View: 2, Seq: 41, Digest: req.Digest(), Replica: id, Sig: fixedBytes(crypto.SignatureSize, 13+byte(id)),
		})
	}
	return p
}

// TestEncodingGolden pins the request identities the three-phase protocol
// agrees on, the prepared certificates written to the WAL, the signing
// and wire bytes of a recorder-sized preprepare, and the pairwise key, tag
// and wire bytes of a MAC'd Commit. WAL segments written by
// older binaries stay readable only while these are unchanged. Run with
// -update to regenerate after an intended format change.
func TestEncodingGolden(t *testing.T) {
	var b strings.Builder
	reqs := goldenRequests()
	for _, name := range []string{"record", "small", "batch"} {
		fmt.Fprintf(&b, "request.%s.digest %x\n", name, reqs[name].Digest())
	}
	fmt.Fprintf(&b, "preparedproof %s\n", hex.EncodeToString(wire.Encode(goldenProof().EncodeTo)))

	pp := &PrePrepare{View: 1, Seq: 9, Req: *reqs["record"], Replica: 1, Sig: fixedBytes(crypto.SignatureSize, 20)}
	sb := signingBytes(pp)
	fmt.Fprintf(&b, "preprepare.signing len=%d sha256=%x\n", len(sb), sha256.Sum256(sb))
	wb := wire.Marshal(pp)
	fmt.Fprintf(&b, "preprepare.wire len=%d sha256=%x\n", len(wb), sha256.Sum256(wb))

	// A Commit as replica 2's engine sends it to replica 1, under keys from
	// fixed seeds: the pairwise key, its known-answer tag, the wire bytes.
	var pairs []*crypto.KeyPair
	for i := 0; i < 4; i++ {
		pairs = append(pairs, crypto.KeyPairFromPrivate(crypto.NodeID(i), ed25519.NewKeyFromSeed(fixedBytes(ed25519.SeedSize, 30+byte(i)))))
	}
	key, err := pairs[2].PairwiseKey(1, pairs[1].Public)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "commit.pairwisekey r1-r2 %x\n", key)
	e2, err := NewEngine(Config{ID: 2, Replicas: []crypto.NodeID{0, 1, 2, 3}}, pairs[2], crypto.NewRegistry(pairs...))
	if err != nil {
		t.Fatal(err)
	}
	bc := e2.commitBroadcast(&Commit{View: 1, Seq: 9, Digest: reqs["record"].Digest(), Replica: 2})
	for _, s := range bc.PerPeer {
		if s.To == 1 {
			fmt.Fprintf(&b, "commit.mac r2->r1 %x\n", s.Encoded[len(s.Encoded)-crypto.MACSize:])
			fmt.Fprintf(&b, "commit.wire r2->r1 %x\n", s.Encoded)
		}
	}
	compareGolden(t, filepath.Join("testdata", "encoding.golden"), b.String())
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("encoding differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
