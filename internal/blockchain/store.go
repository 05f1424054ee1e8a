package blockchain

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"zugchain/internal/metrics"
	"zugchain/internal/wire"
)

// Store errors.
var (
	ErrNotFound   = errors.New("blockchain: block not found")
	ErrBadLinkage = errors.New("blockchain: block does not extend the head")
	ErrPruned     = errors.New("blockchain: block was pruned")
	ErrClosed     = errors.New("blockchain: store closed")
)

// Store keeps the chain in memory and, when configured with a directory,
// persists every block to disk — fsync'd — before acknowledging it, so an
// acknowledged append survives power loss (§V-B "Comparison to JRU
// Requirements"). Durable writes go through a group-commit writer: appends
// that arrive while a disk write is in flight are coalesced into the next
// write group, which pays a single directory fsync for all of its blocks.
// A group of one block degrades to exactly the previous per-block write
// path. Blocks below the pruning base are deleted after a confirmed export
// (§III-D); compacted blocks survive as headers only.
type Store struct {
	mu      sync.RWMutex
	dir     string // empty = memory only
	blocks  map[uint64]*Block
	headers map[uint64]Header // bodies compacted away, headers retained
	base    uint64            // lowest retained full block (pruning base)
	head    uint64            // highest durable (or memory-only) block index
	auth    []byte            // export authorization justifying the base

	// Reservation tail for in-flight durable writes: linkage is checked
	// against (pendHead, pendHash) so a second appender can queue the next
	// block — and land in the same write group — while the first is still
	// waiting on the disk. head trails pendHead until the group commits.
	pendHead uint64
	pendHash [32]byte
	// failed latches the first durable-write error: memory state may be
	// ahead of disk at that point, so the store refuses further appends
	// rather than silently diverge from its own persistence.
	failed error

	gc       metrics.GroupCommitCounters
	recovery RecoveryReport

	// Group-commit writer (dir != ""). writeCh is deliberately unbuffered:
	// a send succeeds only when the writer (or the Close drain) receives
	// it, which is what makes shutdown race-free.
	writeCh   chan *writeReq
	quit      chan struct{}
	writerEnd chan struct{}
	closeOnce sync.Once
}

// writeReq is one appender's durable-write request to the commit loop.
type writeReq struct {
	blocks []*Block   // nil for a pure Sync barrier
	err    chan error // buffered(1): the writer always answers
}

// NewStore creates a store rooted at the genesis block. If dir is nonempty
// it is created if needed, any previously persisted blocks are loaded, and
// the group-commit writer is started; such a store must be Closed.
func NewStore(dir string) (*Store, error) {
	s := &Store{
		dir:     dir,
		blocks:  map[uint64]*Block{0: Genesis()},
		headers: make(map[uint64]Header),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("blockchain: create store dir: %w", err)
		}
		if err := s.load(); err != nil {
			return nil, err
		}
	}
	s.pendHead = s.head
	s.pendHash = s.blocks[s.head].Hash()
	if dir != "" {
		s.writeCh = make(chan *writeReq)
		s.quit = make(chan struct{})
		s.writerEnd = make(chan struct{})
		go s.commitLoop()
	}
	return s, nil
}

// RecoveryReport describes what load found on disk: how many blocks made
// the durable prefix and how many tail files a crash left unusable. The
// node surfaces it at startup — data loss after a crash must be visible,
// not silent.
type RecoveryReport struct {
	// Loaded counts blocks restored into the durable chain prefix.
	Loaded int
	// DiscardedTail counts decodable blocks dropped because they sat
	// beyond a gap in the index sequence (a crash between a write group's
	// renames and its directory fsync).
	DiscardedTail int
	// CorruptTail counts undecodable tail files ignored.
	CorruptTail int
}

// Truncated reports whether recovery discarded anything.
func (r RecoveryReport) Truncated() bool {
	return r.DiscardedTail > 0 || r.CorruptTail > 0
}

// Recovery returns what load found when the store was opened.
func (s *Store) Recovery() RecoveryReport { return s.recovery }

// load reads persisted blocks back into memory.
func (s *Store) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("blockchain: read store dir: %w", err)
	}
	var indices, corrupt []uint64
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, "block-") || !strings.HasSuffix(name, ".zc") {
			continue
		}
		idxStr := strings.TrimSuffix(strings.TrimPrefix(name, "block-"), ".zc")
		idx, err := strconv.ParseUint(idxStr, 10, 64)
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return fmt.Errorf("blockchain: read %s: %w", name, err)
		}
		b, err := Unmarshal(data)
		if err != nil || b.Index != idx {
			// An undecodable file at the chain tail is the expected residue
			// of a crash mid-write and is recoverable (the quorum re-serves
			// the block); the same damage below a valid block means the
			// durable prefix itself is broken, which only state transfer
			// from scratch could fix — refuse to open.
			corrupt = append(corrupt, idx)
			continue
		}
		s.blocks[idx] = b
		indices = append(indices, idx)
	}
	if len(indices) == 0 {
		s.recovery.CorruptTail = len(corrupt)
		return nil
	}
	sort.Slice(indices, func(i, j int) bool { return indices[i] < indices[j] })
	maxValid := indices[len(indices)-1]
	for _, idx := range corrupt {
		if idx < maxValid {
			return fmt.Errorf("blockchain: corrupt block file for index %d amid valid blocks", idx)
		}
	}
	s.recovery.CorruptTail = len(corrupt)
	// Keep only the contiguous run from the lowest index: a crash between a
	// write group's renames and its directory fsync can, in principle,
	// leave a gap, and blocks beyond a gap are not part of the durable
	// chain prefix.
	head := indices[0]
	for _, idx := range indices[1:] {
		if idx != head+1 {
			break
		}
		head = idx
	}
	for _, idx := range indices {
		if idx > head {
			delete(s.blocks, idx)
			s.recovery.DiscardedTail++
		}
	}
	s.recovery.Loaded = len(indices) - s.recovery.DiscardedTail
	s.head = head
	if min := indices[0]; min > 1 {
		s.base = min
		if auth, err := os.ReadFile(filepath.Join(s.dir, "prune-auth.zc")); err == nil {
			s.auth = auth
		}
	}
	return nil
}

// Append adds a sealed block extending the current head. For a persistent
// store it returns only after the block — and the write group it rode in —
// is fsync'd to disk.
func (s *Store) Append(b *Block) error {
	return s.AppendBatch([]*Block{b})
}

// AppendBatch adds a contiguous run of sealed blocks extending the current
// head, persisting them as a single fsync'd write group. Either all blocks
// are appended or none: validation and linkage are checked up front. Used
// by state transfer (a replica installing many fetched blocks at once) and
// by anything else that knows several blocks ahead of time; the group pays
// one directory fsync regardless of length.
func (s *Store) AppendBatch(blocks []*Block) error {
	if len(blocks) == 0 {
		return nil
	}
	for _, b := range blocks {
		if err := b.Validate(); err != nil {
			return err
		}
	}

	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	prevHash := s.pendHash
	next := s.pendHead + 1
	for _, b := range blocks {
		if b.Index != next {
			s.mu.Unlock()
			return fmt.Errorf("%w: index %d after head %d", ErrBadLinkage, b.Index, next-1)
		}
		if b.PrevHash != prevHash {
			s.mu.Unlock()
			return fmt.Errorf("%w: prev hash mismatch at %d", ErrBadLinkage, b.Index)
		}
		prevHash = b.Hash()
		next++
	}
	if s.dir == "" {
		for _, b := range blocks {
			s.blocks[b.Index] = b
		}
		s.head = next - 1
		s.pendHead = s.head
		s.pendHash = prevHash
		s.mu.Unlock()
		return nil
	}
	// Reserve the slots so a concurrent appender can stack the following
	// blocks — and share our write group — while we wait on the disk.
	s.pendHead = next - 1
	s.pendHash = prevHash
	s.mu.Unlock()

	if err := s.submitWrite(&writeReq{blocks: blocks, err: make(chan error, 1)}); err != nil {
		s.mu.Lock()
		if s.failed == nil && !errors.Is(err, ErrClosed) {
			s.failed = err
		}
		s.mu.Unlock()
		return err
	}

	s.mu.Lock()
	for _, b := range blocks {
		s.blocks[b.Index] = b
	}
	if last := blocks[len(blocks)-1].Index; last > s.head {
		s.head = last
	}
	s.mu.Unlock()
	return nil
}

// Sync is a durability barrier: it returns once every write group accepted
// before the call is fsync'd to disk. Export and prune paths call it before
// acting on store contents. No-op for a memory-only store.
func (s *Store) Sync() error {
	if s.dir == "" {
		return nil
	}
	s.gc.AddSync()
	// An empty request round-trips through the commit loop, which
	// serializes it after any in-flight group.
	return s.submitWrite(&writeReq{err: make(chan error, 1)})
}

// Close stops the group-commit writer and releases any appenders still
// queued (they get ErrClosed). The store must not be appended to after
// Close; reads remain valid. Safe to call more than once.
func (s *Store) Close() error {
	if s.dir == "" {
		return nil
	}
	s.closeOnce.Do(func() {
		close(s.quit)
		<-s.writerEnd
		// Release appenders that were parked in submitWrite's send. With
		// an unbuffered writeCh a send only ever pairs with a receive, so
		// after this drain finds the channel idle every remaining sender
		// is guaranteed to take its quit branch.
		for {
			select {
			case r := <-s.writeCh:
				r.err <- ErrClosed
			default:
				return
			}
		}
	})
	return nil
}

// GroupCommits exposes the group-commit writer's counters (groups, blocks
// per group, explicit sync barriers).
func (s *Store) GroupCommits() *metrics.GroupCommitCounters { return &s.gc }

// submitWrite hands a request to the commit loop and waits for its group
// to become durable.
func (s *Store) submitWrite(r *writeReq) error {
	select {
	case s.writeCh <- r:
		return <-r.err
	case <-s.quit:
		return ErrClosed
	}
}

// commitLoop is the group-commit writer: it takes one queued request, then
// drains every other request already waiting, writes all of their blocks
// (each an fsync'd temp file renamed into place), and makes the whole group
// durable with a single directory fsync before acknowledging everyone.
func (s *Store) commitLoop() {
	defer close(s.writerEnd)
	for {
		select {
		case r := <-s.writeCh:
			group := []*writeReq{r}
		drain:
			for {
				select {
				case r2 := <-s.writeCh:
					group = append(group, r2)
				default:
					break drain
				}
			}
			err := s.commitGroup(group)
			for _, g := range group {
				g.err <- err
			}
		case <-s.quit:
			return
		}
	}
}

// commitGroup persists every block of the group and fsyncs the directory
// once. A failure fails the whole group: none of its renames were made
// durable by a directory fsync, so no member may be acknowledged.
func (s *Store) commitGroup(group []*writeReq) error {
	n := 0
	for _, r := range group {
		for _, b := range r.blocks {
			if err := s.writeBlockFile(b); err != nil {
				return err
			}
			n++
		}
	}
	if n == 0 {
		return nil // pure Sync barriers: prior groups already fsync'd
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	s.gc.RecordGroup(n)
	return nil
}

// writeBlockFile persists one block atomically and durably: the temp file
// is fsync'd before the rename, so the rename can never install a file
// whose contents might still be lost to power failure. The directory fsync
// that makes the rename itself durable is the group's, in commitGroup. The
// block is encoded into a pooled encoder, so a write allocates little
// beyond its file path.
func (s *Store) writeBlockFile(b *Block) error {
	tmp := s.blockPath(b.Index, ".tmp")
	final := tmp[:len(tmp)-len(".tmp")]
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("blockchain: write block %d: %w", b.Index, err)
	}
	e := wire.GetEncoder()
	b.Header.encodeTo(e)
	encodeEntries(e, b.Entries)
	_, err = f.Write(e.Data())
	wire.PutEncoder(e)
	if err != nil {
		f.Close()
		return fmt.Errorf("blockchain: write block %d: %w", b.Index, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("blockchain: sync block %d: %w", b.Index, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("blockchain: close block %d: %w", b.Index, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("blockchain: commit block %d: %w", b.Index, err)
	}
	return nil
}

// blockPath returns the path of block index's file, block-%08d.zc, with
// suffix appended, built in one allocation.
func (s *Store) blockPath(index uint64, suffix string) string {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], index, 10)
	var p strings.Builder
	p.Grow(len(s.dir) + len("/block-.zc") + max(len(d), 8) + len(suffix))
	p.WriteString(s.dir)
	p.WriteByte(filepath.Separator)
	p.WriteString("block-")
	for i := len(d); i < 8; i++ {
		p.WriteByte('0')
	}
	p.Write(d)
	p.WriteString(".zc")
	p.WriteString(suffix)
	return p.String()
}

// syncDir fsyncs the store directory, making completed renames durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("blockchain: open store dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("blockchain: sync store dir: %w", err)
	}
	return nil
}

// Get returns the block at index. Pruned indices yield ErrPruned; compacted
// ones only have headers (see Header method).
func (s *Store) Get(index uint64) (*Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if b, ok := s.blocks[index]; ok {
		return b, nil
	}
	if index < s.base {
		return nil, fmt.Errorf("%w: %d below base %d", ErrPruned, index, s.base)
	}
	if _, ok := s.headers[index]; ok {
		return nil, fmt.Errorf("%w: %d compacted to header", ErrPruned, index)
	}
	return nil, fmt.Errorf("%w: %d", ErrNotFound, index)
}

// Header returns the header at index, available even for compacted blocks.
func (s *Store) Header(index uint64) (Header, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if b, ok := s.blocks[index]; ok {
		return b.Header, nil
	}
	if h, ok := s.headers[index]; ok {
		return h, nil
	}
	return Header{}, fmt.Errorf("%w: %d", ErrNotFound, index)
}

// HeaderAtSeq returns the header of the last block whose LastSeq is at
// most seq: the block a checkpoint at seq certifies. Compacted blocks
// count; blocks below the pruning base are gone (ErrPruned).
func (s *Store) HeaderAtSeq(seq uint64) (Header, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	lo, hi := s.base, s.head
	if s.headerLocked(lo).LastSeq > seq {
		return Header{}, fmt.Errorf("%w: seq %d below base %d", ErrPruned, seq, s.base)
	}
	// LastSeq grows with the index: find the last index at or below seq.
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if s.headerLocked(mid).LastSeq <= seq {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return s.headerLocked(lo), nil
}

// headerLocked returns the header at a retained index in [base, head].
func (s *Store) headerLocked(index uint64) Header {
	if b, ok := s.blocks[index]; ok {
		return b.Header
	}
	return s.headers[index]
}

// Head returns the highest block.
func (s *Store) Head() *Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blocks[s.head]
}

// HeadIndex returns the highest block index.
func (s *Store) HeadIndex() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.head
}

// Base returns the pruning base: the lowest retained full block.
func (s *Store) Base() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base
}

// Range returns the full blocks in [from, to]. Missing or pruned indices
// produce an error.
func (s *Store) Range(from, to uint64) ([]*Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if from > to {
		return nil, fmt.Errorf("blockchain: invalid range [%d, %d]", from, to)
	}
	out := make([]*Block, 0, to-from+1)
	for i := from; i <= to; i++ {
		b, ok := s.blocks[i]
		if !ok {
			return nil, fmt.Errorf("%w: %d in range [%d, %d]", ErrNotFound, i, from, to)
		}
		out = append(out, b)
	}
	return out, nil
}

// Prune removes all full blocks below keepFrom after a confirmed export.
// The block at keepFrom is retained as the base of the pruned chain ("the
// last exported block ... serves as the first block for the pruned
// blockchain", §III-D step 6). auth is the export layer's signed delete
// certificate, persisted so a transferred or audited chain can justify its
// non-genesis base.
func (s *Store) Prune(keepFrom uint64, auth []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if keepFrom > s.head {
		return fmt.Errorf("blockchain: prune base %d above head %d", keepFrom, s.head)
	}
	if keepFrom <= s.base {
		return nil // nothing to do
	}
	if _, ok := s.blocks[keepFrom]; !ok {
		return fmt.Errorf("%w: prune base %d", ErrNotFound, keepFrom)
	}
	for i := s.base; i < keepFrom; i++ {
		delete(s.blocks, i)
		delete(s.headers, i)
		if s.dir != "" && i > 0 {
			_ = os.Remove(s.blockPath(i, ""))
		}
	}
	s.base = keepFrom
	s.auth = auth
	if s.dir != "" {
		// The authorization must be durable before the deletions are: a
		// pruned chain recovered after power loss has to be able to
		// justify its non-genesis base (§III-D step 6).
		if auth != nil {
			_ = writeFileSync(filepath.Join(s.dir, "prune-auth.zc"), auth)
		}
		_ = s.syncDir()
	}
	return nil
}

// writeFileSync durably replaces path with data: fsync'd temp file, rename,
// directory fsync.
func writeFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// PruneAuth returns the stored export authorization for the current base.
func (s *Store) PruneAuth() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.auth
}

// CompactToHeaders drops the bodies of blocks in [base, through], keeping
// their headers — the §III-D error (v) escape hatch when deletes are missed
// and memory runs out. The base block body is kept so the chain still has a
// verifiable anchor.
func (s *Store) CompactToHeaders(through uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if through >= s.head {
		return fmt.Errorf("blockchain: refusing to compact the head")
	}
	for i := s.base + 1; i <= through; i++ {
		b, ok := s.blocks[i]
		if !ok {
			continue
		}
		s.headers[i] = b.Header
		delete(s.blocks, i)
		if s.dir != "" {
			_ = os.Remove(s.blockPath(i, ""))
		}
	}
	return nil
}

// VerifyChain checks hash linkage and block integrity from the base to the
// head, spanning compacted headers. Any mutation of any retained byte makes
// it fail.
func (s *Store) VerifyChain() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	prevKnown := false
	var prevHash [32]byte
	for i := s.base; i <= s.head; i++ {
		var h Header
		if b, ok := s.blocks[i]; ok {
			if err := b.Validate(); err != nil {
				return err
			}
			h = b.Header
		} else if hdr, ok := s.headers[i]; ok {
			h = hdr
		} else {
			return fmt.Errorf("%w: %d during verification", ErrNotFound, i)
		}
		if prevKnown && h.PrevHash != prevHash {
			return fmt.Errorf("blockchain: broken link at block %d", i)
		}
		prevHash = h.Hash()
		prevKnown = true
	}
	return nil
}

// VerifySegment checks that blocks form a valid hash chain starting on top
// of base. Used by data centers validating an export batch and by replicas
// installing a state transfer.
func VerifySegment(base Header, blocks []*Block) error {
	prevHash := base.Hash()
	next := base.Index + 1
	for _, b := range blocks {
		if b.Index != next {
			return fmt.Errorf("blockchain: segment gap: got %d, want %d", b.Index, next)
		}
		if b.PrevHash != prevHash {
			return fmt.Errorf("blockchain: segment link broken at %d", b.Index)
		}
		if err := b.Validate(); err != nil {
			return err
		}
		prevHash = b.Hash()
		next++
	}
	return nil
}
