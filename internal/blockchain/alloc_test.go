package blockchain

import (
	"runtime"
	"testing"
)

// recordEntries returns n recorder-sized entries: 1 KB payloads with
// 64-byte signatures, as one bus cycle's record is logged.
func recordEntries(n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Seq: uint64(i + 1), Origin: 1, Payload: make([]byte, 1024), Sig: make([]byte, 64)}
	}
	return entries
}

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
}

// TestDigestsDoNotAllocate guards the hashing on the sealing path: body
// digests and header hashes run several times per block per replica and
// must not allocate once the encoder pool is warm.
func TestDigestsDoNotAllocate(t *testing.T) {
	skipUnderRace(t)
	blk := &Block{Entries: recordEntries(10)}
	blk.BodyHash = BodyDigest(blk.Entries)
	if n := testing.AllocsPerRun(100, func() { BodyDigest(blk.Entries) }); n != 0 {
		t.Errorf("BodyDigest allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { blk.Hash() }); n != 0 {
		t.Errorf("Header.Hash allocates %v times per call, want 0", n)
	}
}

// TestMarshalAllocatesOnce guards the block encoding written to disk: one
// allocation, at the exact size.
func TestMarshalAllocatesOnce(t *testing.T) {
	skipUnderRace(t)
	blk := &Block{Entries: recordEntries(10)}
	blk.Marshal()
	if n := testing.AllocsPerRun(100, func() { blk.Marshal() }); n > 1 {
		t.Errorf("Block.Marshal allocates %v times per call, want at most 1", n)
	}
	if data := blk.Marshal(); len(data) != cap(data) {
		t.Errorf("Block.Marshal result len %d, cap %d: not exact", len(data), cap(data))
	}
}

// TestSealSlotAllocations guards the per-slot seal on the replica's path:
// a one-record slot and a batched slot of ten records each cost the
// block, the next slot's entry storage and the result slice, and nothing
// that grows with the entries.
func TestSealSlotAllocations(t *testing.T) {
	skipUnderRace(t)
	for _, n := range []int{1, 10} {
		entries := recordEntries(n)
		bd := NewSlotBuilder(Genesis(), 10)
		seq := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			seq++
			for i := range entries {
				entries[i].Seq = seq
				bd.Add(entries[i])
			}
			if blocks, err := bd.SealSlot(seq); err != nil || len(blocks) != 1 {
				t.Fatalf("slot %d sealed %d blocks, err %v", seq, len(blocks), err)
			}
		})
		if allocs > 3 {
			t.Errorf("%d-record slot: SealSlot allocates %v times per block, want at most 3 (entries, block, result)", n, allocs)
		}
	}
}

// storeAppendBytes reports the heap bytes one durable Append of a
// one-record block costs, beyond the block itself: the blocks are built
// before the measurement.
func storeAppendBytes(t *testing.T) float64 {
	const blocks = 100
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bd := NewSlotBuilder(Genesis(), 10)
	built := make([]*Block, 0, blocks)
	for seq := uint64(1); len(built) < blocks; seq++ {
		e := recordEntries(1)[0]
		e.Seq = seq
		bd.Add(e)
		sealed, err := bd.SealSlot(seq)
		if err != nil {
			t.Fatal(err)
		}
		built = append(built, sealed...)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, b := range built {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / blocks
}

// TestStoreAppendAllocations guards the store's write path, which a
// replica pays once per executed slot: the block is framed into a pooled
// encoder and appended to the open segment, so appending a one-record
// block allocates neither a copy of its encoding nor a file.
func TestStoreAppendAllocations(t *testing.T) {
	skipUnderRace(t)
	got := storeAppendBytes(t)
	t.Logf("durable Append of a one-record block: %.0f B", got)
	if got > 512 {
		t.Errorf("a durable Append of a one-record block allocates %.0f B, want at most 512", got)
	}
}

// BenchmarkSealSlot measures sealing one slot's block of one
// recorder-sized entry on a replica's builder.
func BenchmarkSealSlot(b *testing.B) {
	e := recordEntries(1)[0]
	bd := NewSlotBuilder(Genesis(), 10)
	b.ReportAllocs()
	for b.Loop() {
		e.Seq++
		bd.Add(e)
		if _, err := bd.SealSlot(e.Seq); err != nil {
			b.Fatal(err)
		}
	}
}
