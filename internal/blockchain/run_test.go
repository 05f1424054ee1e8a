package blockchain

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"zugchain/internal/wire"
)

// testChain builds n blocks on genesis from entries made by entry(seq),
// size entries per block, sealing an empty checkpoint block every fifth.
func testChain(n, size int, entry func(seq uint64) Entry) []*Block {
	bd := NewBuilder(Genesis(), size)
	var chain []*Block
	for seq := uint64(1); len(chain) < n; seq++ {
		if len(chain)%5 == 4 {
			chain = append(chain, bd.seal(nil, seq, seq))
			continue
		}
		if b := bd.Add(entry(seq)); b != nil {
			chain = append(chain, b)
		}
	}
	return chain
}

func encodeRun(blocks []*Block) []byte {
	e := wire.NewEncoder(0)
	EncodeRun(e, blocks)
	return e.Data()
}

// TestRunRoundTrip checks that a run decodes to blocks byte-identical to
// the ones encoded — headers rebuilt from the chain included — and that the
// decoded run links to the block it extends.
func TestRunRoundTrip(t *testing.T) {
	golden := goldenBlocks()
	signed := testChain(12, 10, func(seq uint64) Entry {
		return Entry{Seq: seq, Origin: 3, Payload: make([]byte, 1024), Sig: bytes.Repeat([]byte{byte(seq)}, 64)}
	})
	batched := testChain(6, 3, func(seq uint64) Entry {
		// Five records decided as one batch share each sequence number,
		// so batches straddle block boundaries.
		return Entry{Seq: 100 + seq/5, Origin: 1, Payload: []byte(fmt.Sprintf("batch-%d", seq))}
	})
	cases := []struct {
		name string
		base *Block // the block the run extends
		run  []*Block
	}{
		{"empty run", Genesis(), nil},
		{"empty checkpoint blocks", Genesis(), func() []*Block {
			bd := NewSlotBuilder(Genesis(), 10)
			a, _ := bd.SealSlot(10)
			b, _ := bd.SealSlot(20)
			return append(a, b...)
		}()},
		{"golden shapes", Genesis(), []*Block{golden["empty"], golden["batched"], golden["nilsig"], golden["large"]}},
		{"shared-seq batches", Genesis(), batched},
		{"signed entries", Genesis(), signed},
		{"above a pruned base", signed[6], signed[7:]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := VerifySegment(tc.base.Header, tc.run); err != nil {
				t.Fatalf("test run is not a valid segment: %v", err)
			}
			data := encodeRun(tc.run)
			d := wire.NewDecoder(data)
			got := DecodeRun(d)
			if err := d.Err(); err != nil {
				t.Fatalf("DecodeRun: %v", err)
			}
			if d.Remaining() != 0 {
				t.Fatalf("%d bytes left after the run", d.Remaining())
			}
			if len(got) != len(tc.run) {
				t.Fatalf("decoded %d blocks, want %d", len(got), len(tc.run))
			}
			full := 0
			for i := range got {
				if !bytes.Equal(got[i].Marshal(), tc.run[i].Marshal()) {
					t.Errorf("block %d differs after the round trip", tc.run[i].Index)
				}
				full += len(tc.run[i].Marshal())
			}
			if err := VerifySegment(tc.base.Header, got); err != nil {
				t.Errorf("decoded run: %v", err)
			}
			// Each block sheds most of its 88 B header; the run's 41 B
			// anchor (count, first Index and PrevHash) is paid once.
			if len(got) > 0 && len(data) > full-80*len(got)+41 {
				t.Errorf("run is %d B, storage encoding %d B: headers not dropped", len(data), full)
			}
		})
	}
}

// TestDecodeRunRejects covers input the decoder must refuse rather than
// turn into blocks that Validate would reject.
func TestDecodeRunRejects(t *testing.T) {
	// oneBlock encodes a one-block run with the given sequence fields and
	// entries, each entry given as its (seq delta, origin).
	oneBlock := func(firstDelta, span uint64, entries ...[2]uint64) []byte {
		e := wire.NewEncoder(0)
		e.Uvarint(1)
		e.Uint64(1)
		e.Bytes32(Genesis().Hash())
		e.Uvarint(firstDelta)
		e.Uvarint(span)
		e.Uvarint(uint64(len(entries)))
		for _, en := range entries {
			e.Uvarint(en[0])
			e.Uvarint(en[1])
			e.Bytes([]byte("p"))
			e.Bytes(nil)
		}
		return e.Data()
	}
	cases := map[string][]byte{
		"run count beyond input":     {0xe8, 0x07},
		"entry count beyond input":   append(oneBlock(5, 0)[:len(oneBlock(5, 0))-1], 0xe8, 0x07),
		"first entry after FirstSeq": oneBlock(5, 1, [2]uint64{1, 0}),
		"last entry before LastSeq":  oneBlock(5, 2, [2]uint64{0, 0}, [2]uint64{1, 0}),
		"entries out of order":       oneBlock(5, ^uint64(0), [2]uint64{0, 0}, [2]uint64{^uint64(0), 0}),
		"origin beyond 32 bits":      oneBlock(5, 0, [2]uint64{0, 1 << 32}),
	}
	full := encodeRun([]*Block{goldenBlocks()["empty"], goldenBlocks()["batched"]})
	cases["truncated"] = full[:len(full)-1]
	for name, data := range cases {
		d := wire.NewDecoder(data)
		if blocks := DecodeRun(d); d.Err() == nil {
			t.Errorf("%s: decoded %d blocks, want an error", name, len(blocks))
		}
	}
	d := wire.NewDecoder(oneBlock(5, 1, [2]uint64{0, 0}, [2]uint64{1, 0}))
	if DecodeRun(d); d.Err() != nil {
		t.Errorf("well-formed one-block run rejected: %v", d.Err())
	}
	d = wire.NewDecoder([]byte{0xe8, 0x07})
	if DecodeRun(d); !errors.Is(d.Err(), wire.ErrTooLarge) {
		t.Errorf("oversized run count: %v, want ErrTooLarge", d.Err())
	}
}

// FuzzDecodeRun hardens the run decoder against a Byzantine block source:
// no panic; whatever it accepts re-encodes to exactly the bytes it consumed
// and decodes again to the same blocks; and the decoded run is a valid,
// linked segment.
func FuzzDecodeRun(f *testing.F) {
	golden := goldenBlocks()
	f.Add(encodeRun([]*Block{golden["empty"], golden["batched"], golden["nilsig"], golden["large"]}))
	f.Add(encodeRun(testChain(6, 3, func(seq uint64) Entry {
		return Entry{Seq: 1 + seq/4, Origin: 2, Payload: []byte{byte(seq)}, Sig: []byte{0xaa}}
	})))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDecoder(data)
		blocks := DecodeRun(d)
		if d.Err() != nil {
			return
		}
		again := encodeRun(blocks)
		if consumed := data[:len(data)-d.Remaining()]; !bytes.Equal(again, consumed) {
			t.Fatalf("re-encoding differs from the %d bytes consumed", len(consumed))
		}
		d2 := wire.NewDecoder(again)
		blocks2 := DecodeRun(d2)
		if d2.Err() != nil || len(blocks2) != len(blocks) {
			t.Fatalf("re-decode: %v, %d blocks, want %d", d2.Err(), len(blocks2), len(blocks))
		}
		for i := range blocks {
			if !bytes.Equal(blocks[i].Marshal(), blocks2[i].Marshal()) {
				t.Fatalf("block %d changed through the round trip", i)
			}
		}
		if len(blocks) == 0 {
			return
		}
		if err := blocks[0].Validate(); err != nil {
			t.Fatalf("first decoded block: %v", err)
		}
		if err := VerifySegment(blocks[0].Header, blocks[1:]); err != nil {
			t.Fatalf("decoded run: %v", err)
		}
	})
}
