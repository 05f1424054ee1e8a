package blockchain

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func newMemStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fillStore(t *testing.T, s *Store, nBlocks int) []*Block {
	t.Helper()
	blocks := buildChain(t, nBlocks, 5)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatalf("Append(%d): %v", b.Index, err)
		}
	}
	return blocks
}

func TestStoreAppendAndGet(t *testing.T) {
	s := newMemStore(t)
	blocks := fillStore(t, s, 3)
	if s.HeadIndex() != 3 {
		t.Errorf("HeadIndex = %d", s.HeadIndex())
	}
	for _, want := range blocks {
		got, err := s.Get(want.Index)
		if err != nil {
			t.Fatalf("Get(%d): %v", want.Index, err)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("block %d hash mismatch", want.Index)
		}
	}
	if err := s.VerifyChain(); err != nil {
		t.Errorf("VerifyChain: %v", err)
	}
}

func TestStoreRejectsBadLinkage(t *testing.T) {
	s := newMemStore(t)
	blocks := buildChain(t, 3, 5)
	if err := s.Append(blocks[1]); !errors.Is(err, ErrBadLinkage) {
		t.Errorf("skipping index: %v", err)
	}
	if err := s.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	// Tamper with linkage: right index, wrong prev hash.
	forged := *blocks[1]
	forged.PrevHash = Genesis().Hash()
	if err := s.Append(&forged); !errors.Is(err, ErrBadLinkage) {
		t.Errorf("wrong prev hash: %v", err)
	}
}

func TestStoreRejectsInvalidBlock(t *testing.T) {
	s := newMemStore(t)
	b := buildChain(t, 1, 3)[0]
	b.Entries[0].Payload = []byte("mutated")
	if err := s.Append(b); err == nil {
		t.Error("invalid block appended")
	}
}

func TestStoreRange(t *testing.T) {
	s := newMemStore(t)
	fillStore(t, s, 5)
	got, err := s.Range(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Index != 2 || got[2].Index != 4 {
		t.Errorf("Range = %v blocks", len(got))
	}
	if _, err := s.Range(4, 2); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := s.Range(2, 99); !errors.Is(err, ErrNotFound) {
		t.Errorf("out-of-range: %v", err)
	}
}

func TestStorePrune(t *testing.T) {
	s := newMemStore(t)
	fillStore(t, s, 6)
	auth := []byte("signed-deletes")
	if err := s.Prune(4, auth); err != nil {
		t.Fatal(err)
	}
	if s.Base() != 4 {
		t.Errorf("Base = %d", s.Base())
	}
	if string(s.PruneAuth()) != "signed-deletes" {
		t.Error("prune auth not stored")
	}
	// Blocks below the base are gone; the base block itself is kept as the
	// first block of the pruned chain.
	if _, err := s.Get(2); !errors.Is(err, ErrPruned) {
		t.Errorf("Get(2) = %v", err)
	}
	if _, err := s.Get(4); err != nil {
		t.Errorf("Get(base): %v", err)
	}
	if err := s.VerifyChain(); err != nil {
		t.Errorf("VerifyChain after prune: %v", err)
	}
	// Pruning is idempotent and never moves backwards.
	if err := s.Prune(2, nil); err != nil {
		t.Errorf("backwards prune: %v", err)
	}
	if s.Base() != 4 {
		t.Error("base moved backwards")
	}
	// Cannot prune above head.
	if err := s.Prune(99, nil); err == nil {
		t.Error("pruned above head")
	}
}

func TestStoreCompactToHeaders(t *testing.T) {
	s := newMemStore(t)
	fillStore(t, s, 6)
	if err := s.CompactToHeaders(4); err != nil {
		t.Fatal(err)
	}
	// Bodies gone, headers remain, chain still verifies end to end.
	if _, err := s.Get(3); !errors.Is(err, ErrPruned) {
		t.Errorf("Get(3) = %v", err)
	}
	if _, err := s.Header(3); err != nil {
		t.Errorf("Header(3): %v", err)
	}
	if err := s.VerifyChain(); err != nil {
		t.Errorf("VerifyChain after compaction: %v", err)
	}
	// Refuses to compact the head.
	if err := s.CompactToHeaders(s.HeadIndex()); err == nil {
		t.Error("compacted the head")
	}
}

func TestStorePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	blocks := fillStore(t, s1, 4)

	s2, err := NewStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.HeadIndex() != 4 {
		t.Errorf("HeadIndex after reload = %d", s2.HeadIndex())
	}
	for _, want := range blocks {
		got, err := s2.Get(want.Index)
		if err != nil {
			t.Fatalf("Get(%d) after reload: %v", want.Index, err)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("block %d changed across restart", want.Index)
		}
	}
	if err := s2.VerifyChain(); err != nil {
		t.Errorf("VerifyChain after reload: %v", err)
	}
}

func TestStorePersistencePrunedBase(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s1, 6)
	if err := s1.Prune(4, []byte("auth")); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.Base() != 4 || s2.HeadIndex() != 6 {
		t.Errorf("base=%d head=%d after reload", s2.Base(), s2.HeadIndex())
	}
	if string(s2.PruneAuth()) != "auth" {
		t.Error("prune auth lost across restart")
	}
	if err := s2.VerifyChain(); err != nil {
		t.Errorf("VerifyChain: %v", err)
	}
}

func TestStoreDetectsOnDiskCorruption(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s1, 2)
	s1.Close()

	// Flip one byte of a persisted block: an attacker with disk access
	// after a crash. Reload either fails outright, or it cuts the damaged
	// frame and everything after it, says so, and serves no block built
	// from the damaged bytes.
	path := filepath.Join(dir, "chain-00000001.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/4] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewStore(dir)
	if err != nil {
		return // detected at load: good
	}
	defer s2.Close()
	if !s2.Recovery().Truncated() || s2.HeadIndex() != 0 {
		t.Errorf("on-disk corruption went undetected: head %d, report %+v", s2.HeadIndex(), s2.Recovery())
	}
	if err := s2.VerifyChain(); err != nil {
		t.Error(err)
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "block-junk.zc"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(dir)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if s.HeadIndex() != 0 {
		t.Errorf("HeadIndex = %d", s.HeadIndex())
	}
}
