package blockchain

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"zugchain/internal/wal"
)

// frameOverhead is the segment log's per-frame header: length and CRC.
const frameOverhead = 8

// segmentPayloads returns the payloads of the frames in a segment file.
func segmentPayloads(t testing.TB, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for len(data) > 0 {
		p, n, err := wal.ReadFrame(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, p)
		data = data[n:]
	}
	return out
}

// chainView is everything a reopen must restore.
type chainView struct {
	base, head uint64
	auth       string
	headers    []Header // base..head
	bodies     map[uint64]bool
}

func viewOf(t *testing.T, s *Store) chainView {
	t.Helper()
	v := chainView{base: s.Base(), head: s.HeadIndex(), auth: string(s.PruneAuth()), bodies: map[uint64]bool{}}
	for i := v.base; i <= v.head; i++ {
		h, err := s.Header(i)
		if err != nil {
			t.Fatalf("Header(%d): %v", i, err)
		}
		v.headers = append(v.headers, h)
		if b, err := s.Get(i); err == nil && b.Hash() == h.Hash() {
			v.bodies[i] = true
		}
	}
	if _, err := s.Header(v.base - 1); v.base > 0 && err == nil {
		t.Errorf("header below base %d still served", v.base)
	}
	return v
}

func assertSameChain(t *testing.T, want chainView, s *Store) {
	t.Helper()
	if err := s.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain after reopen: %v", err)
	}
	got := viewOf(t, s)
	if got.base != want.base || got.head != want.head || got.auth != want.auth {
		t.Fatalf("reopened base/head/auth = %d/%d/%q, want %d/%d/%q",
			got.base, got.head, got.auth, want.base, want.head, want.auth)
	}
	for i := range want.headers {
		if got.headers[i] != want.headers[i] {
			t.Errorf("header %d changed across reopen", want.base+uint64(i))
		}
		if idx := want.base + uint64(i); got.bodies[idx] != want.bodies[idx] {
			t.Errorf("block %d body retained = %v, want %v", idx, got.bodies[idx], want.bodies[idx])
		}
	}
}

func reopen(t *testing.T, s *Store, dir string) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { _ = re.Close() })
	if re.Recovery().Truncated() {
		t.Errorf("clean reopen cut a tail: %+v", re.Recovery())
	}
	return re
}

func TestCompactionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := newDiskStore(t, dir)
	fillStore(t, s, 8)
	if err := s.CompactToHeaders(5); err != nil {
		t.Fatal(err)
	}
	want := viewOf(t, s)
	if want.base != 0 || want.bodies[3] || !want.bodies[6] {
		t.Fatalf("compaction before reopen: %+v", want)
	}
	assertSameChain(t, want, reopen(t, s, dir))
}

func TestPruneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := newDiskStore(t, dir)
	fillStore(t, s, 8)
	if err := s.Prune(2, []byte("signed-deletes")); err != nil {
		t.Fatal(err)
	}
	if err := s.CompactToHeaders(5); err != nil {
		t.Fatal(err)
	}
	want := viewOf(t, s)
	if want.base != 2 || !want.bodies[2] || want.bodies[4] || !want.bodies[7] {
		t.Fatalf("prune and compaction before reopen: %+v", want)
	}
	re := reopen(t, s, dir)
	assertSameChain(t, want, re)
	// The reopened store keeps extending the same chain.
	next := NewBuilder(re.Head(), 1).Add(Entry{Seq: re.Head().LastSeq + 1, Payload: []byte("after")})
	if err := re.Append(next); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// segmentFiles lists a store directory's segment files, oldest first.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "chain-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// multiSegmentStore fills a store whose segments rotate after a few
// blocks, appending one block at a time so each lands at a boundary.
func multiSegmentStore(t *testing.T, dir string, n int) (*Store, []*Block) {
	t.Helper()
	s, err := newStore(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	blocks := buildChain(t, n, 5)
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if len(segmentFiles(t, dir)) < 3 {
		t.Fatalf("%d blocks fill only %d segments", n, len(segmentFiles(t, dir)))
	}
	return s, blocks
}

func TestPruneDeletesAndCompactionRewritesSegments(t *testing.T) {
	dir := t.TempDir()
	s, _ := multiSegmentStore(t, dir, 40)
	before := segmentFiles(t, dir)
	if err := s.Prune(20, []byte("auth")); err != nil {
		t.Fatal(err)
	}
	after := segmentFiles(t, dir)
	if len(after) >= len(before) || after[0] == before[0] {
		t.Fatalf("prune kept segments %v of %v", after, before)
	}
	if err := s.CompactToHeaders(38); err != nil {
		t.Fatal(err)
	}
	// Every segment whose blocks all lie in (20, 38] now holds header
	// frames only.
	rewritten := 0
	for _, seg := range segmentFiles(t, dir) {
		ps := segmentPayloads(t, seg)
		headersOnly := len(ps) > 0
		for _, p := range ps {
			headersOnly = headersOnly && len(p) == headerSize
		}
		if headersOnly {
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Error("compaction rewrote no segment as headers")
	}
	want := viewOf(t, s)
	assertSameChain(t, want, reopen(t, s, dir))
}

func TestStoreRecoveryCutsTornFinalFrame(t *testing.T) {
	src := t.TempDir()
	s := newDiskStore(t, src)
	blocks := fillStore(t, s, 4)
	s.Close()
	data, err := os.ReadFile(filepath.Join(src, "chain-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := len(data) - frameOverhead - len(blocks[3].Marshal())
	for cut := lastFrame + 1; cut < len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "chain-00000001.log"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := NewStore(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if re.HeadIndex() != 3 {
			t.Errorf("cut at %d: head %d, want 3", cut, re.HeadIndex())
		}
		if rep := re.Recovery(); rep.TruncatedBytes != int64(cut-lastFrame) || rep.Loaded != 3 {
			t.Errorf("cut at %d: report %+v, want %d bytes cut and 3 loaded", cut, rep, cut-lastFrame)
		}
		if err := re.VerifyChain(); err != nil {
			t.Errorf("cut at %d: %v", cut, err)
		}
		// The tear is gone from disk: the block appends again and stays.
		if err := re.Append(blocks[3]); err != nil {
			t.Errorf("cut at %d: re-append: %v", cut, err)
		}
		re.Close()
	}
}

func TestStoreRefusesCorruptNonFinalSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := multiSegmentStore(t, dir, 20)
	s.Close()
	first := segmentFiles(t, dir)[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if re, err := NewStore(dir); err == nil {
		re.Close()
		t.Fatal("opened a store whose non-final segment is corrupt")
	}
}

func TestStoreRefusesOldLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "block-00000001.zc"), buildChain(t, 1, 1)[0].Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := NewStore(dir); err == nil {
		s.Close()
		t.Fatal("opened a directory of one-file-per-block blocks as an empty chain")
	}
	if segs := segmentFiles(t, dir); len(segs) != 0 {
		t.Errorf("refused open still created %v", segs)
	}
}

func TestStoreRefusesChainWithoutPruneRecord(t *testing.T) {
	// Segments deleted by hand: the chain on disk starts past genesis but
	// no prune record justifies the base.
	dir := t.TempDir()
	s, _ := multiSegmentStore(t, dir, 20)
	s.Close()
	if err := os.Remove(segmentFiles(t, dir)[0]); err != nil {
		t.Fatal(err)
	}
	if re, err := NewStore(dir); err == nil {
		re.Close()
		t.Fatal("opened a chain whose first segment is missing")
	}
}

// FuzzStoreRecovery feeds arbitrary bytes as the final segment behind a
// valid one: opening must never panic, and whatever opens must verify.
func FuzzStoreRecovery(f *testing.F) {
	dir := f.TempDir()
	s, err := newStore(dir, 1)
	if err != nil {
		f.Fatal(err)
	}
	bd := NewBuilder(Genesis(), 1)
	for seq := uint64(1); seq <= 4; seq++ {
		if err := s.Append(bd.Add(Entry{Seq: seq, Payload: []byte{byte(seq)}, Sig: []byte{0xaa}})); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.CompactToHeaders(2); err != nil {
		f.Fatal(err)
	}
	s.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "chain-*.log"))
	if err != nil || len(segs) < 3 {
		f.Fatalf("segments %v, err %v", segs, err)
	}
	first, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	for _, seg := range segs[1:] {
		data, err := os.ReadFile(seg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(append(bytes.Clone(data), 0x01, 0x02))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "chain-00000001.log"), first, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "chain-00000002.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewStore(dir)
		if err != nil {
			return
		}
		defer s.Close()
		if err := s.VerifyChain(); err != nil {
			t.Fatalf("opened chain fails verification: %v", err)
		}
		if s.Head() == nil || s.HeadIndex() < s.Base() {
			t.Fatalf("opened chain has base %d, head %d", s.Base(), s.HeadIndex())
		}
	})
}
