package blockchain

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func newDiskStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestStoreAppendBatchOneGroup(t *testing.T) {
	dir := t.TempDir()
	s := newDiskStore(t, dir)
	blocks := buildChain(t, 5, 3)
	if err := s.AppendBatch(blocks); err != nil {
		t.Fatal(err)
	}
	if s.HeadIndex() != 5 {
		t.Errorf("HeadIndex = %d", s.HeadIndex())
	}
	gc := s.GroupCommits()
	if gc.Groups.Load() != 1 || gc.Blocks.Load() != 5 {
		t.Errorf("group counters = %d groups / %d blocks, want one 5-block group", gc.Groups.Load(), gc.Blocks.Load())
	}
	// One segment holds the group: one frame per block, whose payload is
	// the block's Marshal encoding.
	for i, p := range segmentPayloads(t, filepath.Join(dir, "chain-00000001.log")) {
		if !bytes.Equal(p, blocks[i].Marshal()) {
			t.Errorf("frame %d is not block %d's encoding", i, blocks[i].Index)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := newDiskStore(t, dir)
	if re.HeadIndex() != 5 {
		t.Errorf("reloaded HeadIndex = %d", re.HeadIndex())
	}
	if err := re.VerifyChain(); err != nil {
		t.Errorf("reloaded chain: %v", err)
	}
}

func TestStoreAppendBatchAllOrNothing(t *testing.T) {
	s := newMemStore(t)
	blocks := buildChain(t, 4, 3)
	// A gap inside the run must reject the whole batch up front.
	if err := s.AppendBatch([]*Block{blocks[0], blocks[2]}); !errors.Is(err, ErrBadLinkage) {
		t.Errorf("gapped batch: %v", err)
	}
	if s.HeadIndex() != 0 {
		t.Errorf("partial batch applied: head = %d", s.HeadIndex())
	}
	// A batch not rooted at the head is rejected too.
	if err := s.AppendBatch(blocks[1:]); !errors.Is(err, ErrBadLinkage) {
		t.Errorf("unrooted batch: %v", err)
	}
	if err := s.AppendBatch(blocks); err != nil {
		t.Fatal(err)
	}
	if s.HeadIndex() != 4 {
		t.Errorf("head = %d", s.HeadIndex())
	}
}

func TestStoreSingleAppendsDegradeToSingletonGroups(t *testing.T) {
	s := newDiskStore(t, t.TempDir())
	for _, b := range buildChain(t, 4, 3) {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	gc := s.GroupCommits()
	if gc.Blocks.Load() != 4 {
		t.Errorf("committed blocks = %d", gc.Blocks.Load())
	}
	// A lone appender never has companions waiting: every group is one
	// block — today's write path, now with fsync.
	if gc.Groups.Load() != 4 {
		t.Errorf("groups = %d for 4 blocks, want 4 singleton groups", gc.Groups.Load())
	}
}

func TestStoreSyncBarrier(t *testing.T) {
	s := newDiskStore(t, t.TempDir())
	fillStore(t, s, 2)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.GroupCommits().Syncs.Load(); got != 1 {
		t.Errorf("sync counter = %d", got)
	}

	mem := newMemStore(t)
	if err := mem.Sync(); err != nil {
		t.Errorf("memory-store Sync: %v", err)
	}
}

func TestStoreCloseStopsAppends(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blocks := buildChain(t, 2, 3)
	if err := s.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close failed")
	}
	if err := s.Append(blocks[1]); !errors.Is(err, ErrClosed) {
		t.Errorf("append after Close: %v", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("sync after Close: %v", err)
	}
	// Reads stay valid after Close.
	if s.HeadIndex() != 1 {
		t.Errorf("head after Close = %d", s.HeadIndex())
	}
}

func TestStoreAppendsRaceSyncBarriers(t *testing.T) {
	// One appender, several Sync hammers: exercises the commit loop's
	// group formation and the barrier path under the race detector.
	s := newDiskStore(t, t.TempDir())
	blocks := buildChain(t, 30, 2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = s.Sync()
				}
			}
		}()
	}
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if got := s.GroupCommits().Blocks.Load(); got != 30 {
		t.Errorf("committed blocks = %d", got)
	}
	if err := s.VerifyChain(); err != nil {
		t.Error(err)
	}
}

func TestStoreLoadDropsBlocksBeyondGap(t *testing.T) {
	dir := t.TempDir()
	s := newDiskStore(t, dir)
	blocks := fillStore(t, s, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that tore block 3's frame: the durable chain prefix
	// ends at 2, and block 4 behind the tear is gone with it.
	seg := filepath.Join(dir, "chain-00000001.log")
	cut := 2*frameOverhead + len(blocks[0].Marshal()) + len(blocks[1].Marshal()) + 5
	if err := os.Truncate(seg, int64(cut)); err != nil {
		t.Fatal(err)
	}

	re := newDiskStore(t, dir)
	if re.HeadIndex() != 2 {
		t.Errorf("reloaded head = %d, want 2 (prefix before the tear)", re.HeadIndex())
	}
	if rep := re.Recovery(); rep.Loaded != 2 || !rep.Truncated() {
		t.Errorf("recovery report = %+v, want 2 loaded and a cut tail", rep)
	}
	if _, err := re.Get(4); errors.Is(err, nil) {
		t.Error("block beyond the tear still served")
	}
	if err := re.VerifyChain(); err != nil {
		t.Errorf("prefix chain: %v", err)
	}
	// The store must be appendable again from the truncated head.
	if err := re.Append(blocks[2]); err != nil {
		t.Errorf("append after truncated reload: %v", err)
	}
}
