package blockchain

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/encoding.golden from the current encodings")

// goldenBlocks are fixed blocks covering every shape the encoding meets:
// the genesis and an empty checkpoint block, a batched block whose entries
// share one agreement sequence, a block with nil signatures and empty
// payloads, and a recorder-sized block (ten 1 KB records) large enough to
// outgrow any small initial buffer.
func goldenBlocks() map[string]*Block {
	sealed, err := NewSlotBuilder(Genesis(), 10).SealSlot(10)
	if err != nil || len(sealed) != 1 {
		panic(fmt.Sprintf("empty checkpoint slot sealed %d blocks, err %v", len(sealed), err))
	}
	empty := sealed[0]

	bd := NewBuilder(empty, 100)
	for i := 0; i < 3; i++ {
		bd.Add(Entry{Seq: 11, Origin: 2, Payload: []byte(fmt.Sprintf("batched-%d", i)), Sig: []byte{0xa0, byte(i), 0xff}})
	}
	bd.Add(Entry{Seq: 12, Origin: 0, Payload: []byte("single"), Sig: []byte("sig")})
	batched := bd.Seal()

	bd = NewBuilder(batched, 100)
	bd.Add(Entry{Seq: 13, Origin: 1, Payload: []byte("unsigned")})
	bd.Add(Entry{Seq: 14, Origin: 3})
	nilSig := bd.Seal()

	bd = NewBuilder(nilSig, 10)
	var large *Block
	for i := 0; large == nil; i++ {
		payload := make([]byte, 1024+i)
		for j := range payload {
			payload[j] = byte(i*31 + j)
		}
		sig := make([]byte, 64)
		for j := range sig {
			sig[j] = byte(i + j)
		}
		large = bd.Add(Entry{Seq: 15 + uint64(i), Origin: 1, Payload: payload, Sig: sig})
	}
	return map[string]*Block{
		"genesis": Genesis(), "empty": empty, "batched": batched, "nilsig": nilSig, "large": large,
	}
}

// TestEncodingGolden pins the bytes everything durable is made of: header
// hashes (the chain links and checkpoint digests), body digests and the
// block encoding written to disk. Stored chains and export archives stay
// verifiable only while these are unchanged. Run with -update to regenerate
// after an intended format change.
func TestEncodingGolden(t *testing.T) {
	blocks := goldenBlocks()
	var b strings.Builder
	for _, name := range []string{"genesis", "empty", "batched", "nilsig", "large"} {
		blk := blocks[name]
		data := blk.Marshal()
		fmt.Fprintf(&b, "%s.hash %x\n", name, blk.Hash())
		fmt.Fprintf(&b, "%s.body %x\n", name, BodyDigest(blk.Entries))
		if len(data) <= 512 {
			fmt.Fprintf(&b, "%s.marshal %s\n", name, hex.EncodeToString(data))
		} else {
			fmt.Fprintf(&b, "%s.marshal len=%d sha256=%x\n", name, len(data), sha256.Sum256(data))
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
