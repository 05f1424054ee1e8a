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

// sealBytesPerBlock reports the heap bytes one checkpoint seal of ten
// recorder-sized entries costs on a builder made with size.
func sealBytesPerBlock(size int) float64 {
	entries := recordEntries(10)
	bd := NewBuilder(Genesis(), size)
	const blocks = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for b := 0; b < blocks; b++ {
		for i := range entries {
			bd.Add(entries[i])
		}
		bd.SealCheckpoint(uint64(b+1) * 10)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / blocks
}

// TestSealCheckpointCostIndependentOfSize guards against sizing each new
// block from the builder's size argument: the node passes a huge "seal at
// checkpoints" sentinel, which must cost no more per seal than a real size.
func TestSealCheckpointCostIndependentOfSize(t *testing.T) {
	skipUnderRace(t)
	small, huge := sealBytesPerBlock(16), sealBytesPerBlock(1<<30)
	if huge > small*1.1+256 {
		t.Errorf("seal with the sentinel size allocates %.0f B per block, with size 16 %.0f B", huge, small)
	}
	entries := recordEntries(10)
	for _, size := range []int{16, 1 << 30} {
		bd := NewBuilder(Genesis(), size)
		n := testing.AllocsPerRun(100, func() {
			for i := range entries {
				bd.Add(entries[i])
			}
			bd.SealCheckpoint(bd.NextIndex() * 10)
		})
		if n > 2 {
			t.Errorf("size %d: SealCheckpoint allocates %v times per block, want at most 2 (entries, block)", size, n)
		}
	}
}

// BenchmarkSealCheckpoint measures sealing one checkpoint block of ten
// recorder-sized entries on a builder sized like the node's.
func BenchmarkSealCheckpoint(b *testing.B) {
	entries := recordEntries(10)
	bd := NewBuilder(Genesis(), 1<<30)
	b.ReportAllocs()
	for b.Loop() {
		for i := range entries {
			bd.Add(entries[i])
		}
		bd.SealCheckpoint(bd.NextIndex() * 10)
	}
}
