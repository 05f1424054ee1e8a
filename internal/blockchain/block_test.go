package blockchain

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"zugchain/internal/crypto"
)

func entry(seq uint64, payload string) Entry {
	return Entry{Seq: seq, Origin: crypto.NodeID(seq % 4), Payload: []byte(payload), Sig: []byte{byte(seq)}}
}

func buildChain(t *testing.T, nBlocks, size int) []*Block {
	t.Helper()
	bd := NewBuilder(Genesis(), size)
	var blocks []*Block
	seq := uint64(1)
	for len(blocks) < nBlocks {
		b := bd.Add(entry(seq, fmt.Sprintf("payload-%d", seq)))
		seq++
		if b != nil {
			blocks = append(blocks, b)
		}
	}
	return blocks
}

func TestBuilderSealsAtSize(t *testing.T) {
	bd := NewBuilder(Genesis(), 3)
	if b := bd.Add(entry(1, "a")); b != nil {
		t.Fatal("sealed early")
	}
	if b := bd.Add(entry(2, "b")); b != nil {
		t.Fatal("sealed early")
	}
	b := bd.Add(entry(3, "c"))
	if b == nil {
		t.Fatal("did not seal at size")
	}
	if b.Index != 1 || b.FirstSeq != 1 || b.LastSeq != 3 || len(b.Entries) != 3 {
		t.Errorf("block = %+v", b.Header)
	}
	if b.PrevHash != Genesis().Hash() {
		t.Error("block not linked to genesis")
	}
	if err := b.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderChainsBlocks(t *testing.T) {
	blocks := buildChain(t, 5, 10)
	prev := Genesis()
	for _, b := range blocks {
		if b.PrevHash != prev.Hash() {
			t.Fatalf("block %d not linked to %d", b.Index, prev.Index)
		}
		if b.Index != prev.Index+1 {
			t.Fatalf("block index %d after %d", b.Index, prev.Index)
		}
		prev = b
	}
	if err := VerifySegment(Genesis().Header, blocks); err != nil {
		t.Errorf("VerifySegment: %v", err)
	}
}

func TestBuilderSealEarly(t *testing.T) {
	bd := NewBuilder(Genesis(), 10)
	bd.Add(entry(1, "a"))
	bd.Add(entry(2, "b"))
	b := bd.Seal()
	if b == nil || len(b.Entries) != 2 {
		t.Fatalf("Seal = %+v", b)
	}
	if bd.Pending() != 0 {
		t.Error("pending not cleared")
	}
	if bd.Seal() != nil {
		t.Error("empty Seal returned a block")
	}
}

func TestBuilderDeterministicAcrossReplicas(t *testing.T) {
	b1 := buildChain(t, 3, 10)
	b2 := buildChain(t, 3, 10)
	for i := range b1 {
		if b1[i].Hash() != b2[i].Hash() {
			t.Fatalf("block %d hashes differ across identical builders", i)
		}
	}
}

func TestBlockMarshalRoundTrip(t *testing.T) {
	b := buildChain(t, 1, 4)[0]
	got, err := Unmarshal(b.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Hash() != b.Hash() {
		t.Error("hash changed through round trip")
	}
	if len(got.Entries) != len(b.Entries) {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	for i := range b.Entries {
		if !bytes.Equal(got.Entries[i].Payload, b.Entries[i].Payload) ||
			got.Entries[i].Seq != b.Entries[i].Seq ||
			got.Entries[i].Origin != b.Entries[i].Origin {
			t.Errorf("entry %d = %+v", i, got.Entries[i])
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	b := buildChain(t, 1, 2)[0]
	data := b.Marshal()
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", data[:len(data)-3]},
		{"trailing", append(append([]byte{}, data...), 0x01)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Unmarshal(tt.data); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Block { return buildChain(t, 1, 3)[0] }

	t.Run("payload mutation", func(t *testing.T) {
		b := mk()
		b.Entries[1].Payload[0] ^= 1
		if b.Validate() == nil {
			t.Error("mutated payload validated")
		}
	})
	t.Run("dropped entry", func(t *testing.T) {
		b := mk()
		b.Entries = b.Entries[:len(b.Entries)-1]
		if b.Validate() == nil {
			t.Error("dropped entry validated")
		}
	})
	t.Run("reordered entries", func(t *testing.T) {
		b := mk()
		b.Entries[0], b.Entries[1] = b.Entries[1], b.Entries[0]
		if b.Validate() == nil {
			t.Error("reordered entries validated")
		}
	})
	t.Run("seq range lie", func(t *testing.T) {
		b := mk()
		b.LastSeq++
		if b.Validate() == nil {
			t.Error("wrong seq range validated")
		}
	})
}

// Property: flipping any bit of a marshalled block is detected — either the
// decode fails, validation fails, or the hash changes. This is the
// tamper-evidence R3 relies on.
func TestTamperEvidenceProperty(t *testing.T) {
	b := buildChain(t, 1, 5)[0]
	origHash := b.Hash()
	data := b.Marshal()

	f := func(bitIdx uint) bool {
		mutated := make([]byte, len(data))
		copy(mutated, data)
		i := int(bitIdx % uint(len(mutated)*8))
		mutated[i/8] ^= 1 << (i % 8)

		got, err := Unmarshal(mutated)
		if err != nil {
			return true // detected at decode
		}
		if got.Validate() != nil {
			return true // detected at validation
		}
		return got.Hash() != origHash // must be detected via the chain link
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVerifySegmentDetectsTampering(t *testing.T) {
	blocks := buildChain(t, 4, 5)

	t.Run("valid", func(t *testing.T) {
		if err := VerifySegment(Genesis().Header, blocks); err != nil {
			t.Fatalf("VerifySegment: %v", err)
		}
	})
	t.Run("middle block replaced", func(t *testing.T) {
		tampered := make([]*Block, len(blocks))
		copy(tampered, blocks)
		forged := *blocks[1]
		forged.Entries = append([]Entry{}, blocks[1].Entries...)
		forged.Entries[0].Payload = []byte("forged")
		forged.BodyHash = BodyDigest(forged.Entries)
		tampered[1] = &forged
		if VerifySegment(Genesis().Header, tampered) == nil {
			t.Error("replaced block passed verification")
		}
	})
	t.Run("gap", func(t *testing.T) {
		if VerifySegment(Genesis().Header, []*Block{blocks[0], blocks[2]}) == nil {
			t.Error("gapped segment verified")
		}
	})
	t.Run("wrong base", func(t *testing.T) {
		if VerifySegment(blocks[0].Header, blocks) == nil {
			t.Error("segment verified against wrong base")
		}
	})
}

func TestBuilderResetTo(t *testing.T) {
	bd := NewBuilder(Genesis(), 5)
	bd.Add(entry(1, "discard"))
	blocks := buildChain(t, 2, 5)
	bd.ResetTo(blocks[1])
	if bd.Pending() != 0 || bd.NextIndex() != 3 {
		t.Errorf("after reset: pending=%d next=%d", bd.Pending(), bd.NextIndex())
	}
	for s := uint64(11); s <= 15; s++ {
		if b := bd.Add(entry(s, "x")); b != nil {
			if b.PrevHash != blocks[1].Hash() {
				t.Error("reset builder not linked to new base")
			}
		}
	}
}

func TestGenesisIsStable(t *testing.T) {
	if Genesis().Hash() != Genesis().Hash() {
		t.Error("genesis hash unstable")
	}
	if Genesis().Index != 0 {
		t.Error("genesis index nonzero")
	}
}

// Fuzz-ish: Unmarshal must never panic on random bytes.
func TestUnmarshalNoPanicOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		_, _ = Unmarshal(data) // must not panic
	}
}

// TestSealSlotRule pins the chain's sealing rule on a slot builder with a
// checkpoint every 10 slots.
func TestSealSlotRule(t *testing.T) {
	bd := NewSlotBuilder(Genesis(), 10)
	seal := func(seq uint64) []*Block {
		t.Helper()
		blocks, err := bd.SealSlot(seq)
		if err != nil {
			t.Fatalf("SealSlot(%d): %v", seq, err)
		}
		return blocks
	}

	// A batched slot: its records share one block and one seq.
	for i := 0; i < 3; i++ {
		bd.Add(entry(1, fmt.Sprintf("batched-%d", i)))
	}
	got := seal(1)
	if len(got) != 1 || len(got[0].Entries) != 3 || got[0].FirstSeq != 1 || got[0].LastSeq != 1 {
		t.Fatalf("batch slot sealed %d blocks, first %+v", len(got), got[0].Header)
	}
	if err := got[0].Validate(); err != nil || got[0].PrevHash != Genesis().Hash() {
		t.Errorf("batch block invalid or unlinked: %v", err)
	}

	// Slot 2 logged nothing (every record a duplicate) and slot 3 was
	// null: neither seals a block. Slot 4 gets its own.
	if got := seal(2); len(got) != 0 {
		t.Errorf("empty slot sealed %d blocks", len(got))
	}
	bd.Add(entry(4, "single"))
	if got := seal(4); len(got) != 1 || got[0].Index != 2 || got[0].FirstSeq != 4 || got[0].LastSeq != 4 {
		t.Fatalf("slot 4 sealed %+v", got)
	}

	// Checkpoint slot 10 logged nothing: an empty block ending at it.
	got = seal(10)
	if len(got) != 1 || len(got[0].Entries) != 0 || got[0].FirstSeq != 10 || got[0].LastSeq != 10 || got[0].Index != 3 {
		t.Fatalf("empty checkpoint slot sealed %+v", got)
	}
	// Checkpoint slot 20 logged a record: its own block ends there, and no
	// empty block follows.
	bd.Add(entry(20, "at-checkpoint"))
	if got := seal(20); len(got) != 1 || len(got[0].Entries) != 1 || got[0].LastSeq != 20 {
		t.Fatalf("checkpoint slot with a record sealed %+v", got)
	}

	// A slot the chain already holds seals nothing and drops its entries.
	bd.Add(entry(20, "again"))
	if got := seal(20); len(got) != 0 || bd.Pending() != 0 {
		t.Errorf("re-executed slot sealed %d blocks, %d entries pending", len(got), bd.Pending())
	}
}

// TestSealSlotGap: execution that jumped past a checkpoint this builder
// never sealed must not seal; once a state transfer re-anchors the
// builder, the slots executed meanwhile seal one block each.
func TestSealSlotGap(t *testing.T) {
	bd := NewSlotBuilder(Genesis(), 10)
	bd.Add(entry(21, "a"))
	bd.Add(entry(21, "b"))
	if blocks, err := bd.SealSlot(21); !errors.Is(err, ErrChainGap) || len(blocks) != 0 {
		t.Fatalf("slot 21 on genesis: %d blocks, err %v", len(blocks), err)
	}
	bd.Add(entry(23, "c"))
	if _, err := bd.SealSlot(23); !errors.Is(err, ErrChainGap) {
		t.Fatalf("slot 23 on genesis: err %v", err)
	}

	// The transfer installs the chain through the checkpoint at 20.
	transferred := NewSlotBuilder(Genesis(), 10)
	var head *Block
	for _, seq := range []uint64{10, 20} {
		blocks, err := transferred.SealSlot(seq)
		if err != nil {
			t.Fatal(err)
		}
		head = blocks[len(blocks)-1]
	}
	bd.ResetTo(head)
	bd.Add(entry(24, "d"))
	blocks, err := bd.SealSlot(24)
	if err != nil || len(blocks) != 3 {
		t.Fatalf("catch-up sealed %d blocks, err %v", len(blocks), err)
	}
	for i, want := range []uint64{21, 23, 24} {
		if b := blocks[i]; b.FirstSeq != want || b.LastSeq != want {
			t.Errorf("block %d covers %d–%d, want slot %d", i, b.FirstSeq, b.LastSeq, want)
		}
	}
	if err := VerifySegment(head.Header, blocks); err != nil {
		t.Errorf("catch-up blocks do not extend the transferred head: %v", err)
	}
}
