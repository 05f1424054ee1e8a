package core

import (
	"testing"
	"testing/quick"

	"zugchain/internal/crypto"
)

func dig(s string) crypto.Digest { return crypto.Hash([]byte(s)) }

func TestWindowContains(t *testing.T) {
	w := newDecidedWindow(10)
	w.add(dig("a"), 1)
	if !w.contains(dig("a")) {
		t.Error("fresh entry missing")
	}
	if w.contains(dig("b")) {
		t.Error("phantom entry")
	}
	if seq, ok := w.seqOf(dig("a")); !ok || seq != 1 {
		t.Errorf("seqOf = %d, %v", seq, ok)
	}
}

func TestWindowEvictsOldEntries(t *testing.T) {
	// Window covers (current-width, current]: with width 5, seq 1 is in
	// the window while current <= 5 and evicted once current reaches 6.
	w := newDecidedWindow(5)
	w.add(dig("old"), 1)
	for seq := uint64(2); seq <= 5; seq++ {
		w.add(dig("x"), seq)
	}
	if !w.contains(dig("old")) {
		t.Fatal("evicted too early: seq 1 with current 5, width 5")
	}
	w.add(dig("y"), 6) // cutoff = 1: seq 1 must go
	if w.contains(dig("old")) {
		t.Error("seq 1 survived past the window")
	}
}

func TestWindowReAddAfterEviction(t *testing.T) {
	w := newDecidedWindow(3)
	w.add(dig("dup"), 1)
	w.add(dig("a"), 2)
	w.add(dig("b"), 3)
	w.add(dig("c"), 5) // cutoff 2: evicts seq 1 and 2
	if w.contains(dig("dup")) || w.contains(dig("a")) {
		t.Fatal("eviction failed")
	}
	// The duplicate is logged again outside the window (paper §III-C
	// "Faulty Primary": recorded, detected post-operationally).
	w.add(dig("dup"), 6)
	if !w.contains(dig("dup")) {
		t.Error("re-added digest missing")
	}
	if seq, _ := w.seqOf(dig("dup")); seq != 6 {
		t.Errorf("seqOf = %d, want 6", seq)
	}
}

func TestWindowReAddedEntryNotKilledByStaleEviction(t *testing.T) {
	w := newDecidedWindow(2)
	w.add(dig("d"), 1)
	w.add(dig("a"), 3) // cutoff 1: evicts seq 1
	w.add(dig("d"), 4) // re-added
	w.add(dig("b"), 5)
	w.add(dig("c"), 6) // cutoff 4: stale order entry for ("d",1) long gone,
	// but ("d",4) is exactly at cutoff and goes now
	if w.contains(dig("d")) {
		t.Error("entry at cutoff retained")
	}
	w.add(dig("d"), 7)
	if !w.contains(dig("d")) {
		t.Error("fresh re-add lost to stale eviction record")
	}
}

func TestWindowSharedSeqEvictedTogether(t *testing.T) {
	// Records decided as one batch share a seq: they must stay and go as
	// one unit, exactly when that seq leaves the window.
	w := newDecidedWindow(3)
	w.add(dig("b1"), 2)
	w.add(dig("b2"), 2)
	w.add(dig("b3"), 2)
	w.add(dig("x"), 5) // cutoff 2: the whole batch goes
	for _, d := range []string{"b1", "b2", "b3"} {
		if w.contains(dig(d)) {
			t.Errorf("%s survived past the window", d)
		}
	}
	if !w.contains(dig("x")) {
		t.Error("fresh entry evicted")
	}
	if w.len() != 1 {
		t.Errorf("len = %d, want 1", w.len())
	}
}

func TestWindowWrapLargeSeqJump(t *testing.T) {
	// A decide stream resuming far ahead (view change with many nulls, or
	// state transfer) must flush everything older in one eviction pass and
	// compact the FIFO.
	w := newDecidedWindow(10)
	for seq := uint64(1); seq <= 8; seq++ {
		w.add(crypto.Hash([]byte{byte(seq)}), seq)
	}
	w.add(dig("far"), 1000)
	if w.len() != 1 || !w.contains(dig("far")) {
		t.Fatalf("len = %d after wrap, want only the fresh entry", w.len())
	}
	if len(w.order) != 1 {
		t.Errorf("order FIFO = %d entries, want compacted to 1", len(w.order))
	}
}

func TestWindowReAddAtHigherSeqSurvivesIntermediateEvictions(t *testing.T) {
	// A digest evicted and re-added at a much higher seq must survive every
	// eviction whose cutoff lies between the two occurrences: the stale
	// FIFO record for the first occurrence may be processed while the map
	// already points at the second.
	w := newDecidedWindow(2)
	w.add(dig("r"), 1)
	w.add(dig("r"), 10) // re-add long before ("r",1) leaves the FIFO
	for seq := uint64(11); seq <= 12; seq++ {
		w.add(crypto.Hash([]byte{byte(seq)}), seq) // cutoffs 9 and 10... (10 evicts it)
		if seq == 11 && !w.contains(dig("r")) {
			t.Fatal("re-added digest killed by its own stale FIFO record")
		}
	}
	// cutoff reached 10: the re-added occurrence itself is now out.
	if w.contains(dig("r")) {
		t.Error("re-added digest survived past its own window")
	}
	// And a third occurrence starts a fresh life.
	w.add(dig("r"), 13)
	if !w.contains(dig("r")) {
		t.Error("third occurrence missing")
	}
}

// Property: after adding digests at seqs 1..n, exactly those with
// seq > n - width remain.
func TestWindowInvariantProperty(t *testing.T) {
	f := func(widthRaw uint8, nRaw uint8) bool {
		width := uint64(widthRaw%50) + 1
		n := uint64(nRaw%200) + 1
		w := newDecidedWindow(width)
		for seq := uint64(1); seq <= n; seq++ {
			w.add(crypto.Hash([]byte{byte(seq), byte(seq >> 8)}), seq)
		}
		for seq := uint64(1); seq <= n; seq++ {
			d := crypto.Hash([]byte{byte(seq), byte(seq >> 8)})
			want := n <= width || seq > n-width
			if w.contains(d) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
