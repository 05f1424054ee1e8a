package blockchain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"zugchain/internal/metrics"
	"zugchain/internal/wal"
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
// Requirements"). On disk the chain is a wal.Segments log, the segment log
// the write-ahead log also uses: each block is one frame whose payload is
// its Marshal encoding, and appends waiting together share one write and
// one fsync. Prune and CompactToHeaders append a state record (base,
// compaction mark, export authorization) before they delete or rewrite
// anything, so a reopened store comes back with the same base and headers.
// Blocks below the pruning base are deleted after a confirmed export
// (§III-D); compacted blocks survive as headers only.
type Store struct {
	mu        sync.RWMutex
	log       *wal.Segments // nil = memory only
	blocks    map[uint64]*Block
	headers   map[uint64]Header // bodies compacted away, headers retained
	base      uint64            // lowest retained full block (pruning base)
	head      uint64            // highest durable (or memory-only) block index
	auth      []byte            // export authorization justifying the base
	compacted uint64            // highest index ever compacted to its header

	// Reservation tail for in-flight durable writes: linkage is checked
	// against (pendHead, pendHash) so a second appender can queue the next
	// block — and land in the same write group — while the first is still
	// waiting on the disk. head trails pendHead until the group commits.
	pendHead uint64
	pendHash [32]byte

	// spans records which block indices each segment holds: what Prune
	// may delete and CompactToHeaders may rewrite.
	spans map[uint64]span
	// maint serializes Prune and CompactToHeaders, whose state record,
	// memory update and segment work must not interleave.
	maint sync.Mutex

	gc       metrics.GroupCommitCounters
	recovery RecoveryReport
}

// span is the run of block indices [first, last] one segment holds;
// bodies says whether they are stored as full blocks.
type span struct {
	first, last uint64
	bodies      bool
}

const (
	segmentPrefix = "chain"
	// segmentBytes is the size past which the store starts a new segment,
	// at the next block boundary: small enough that Prune reclaims disk
	// soon after an export, large enough that rotations are rare.
	segmentBytes = 16 << 20
	// headerSize is a Header's encoded size, and so the payload size of a
	// header frame; every block encoding is longer.
	headerSize = 88
	// stateIndex leads a state record where a block's index would be.
	stateIndex = ^uint64(0)
)

// NewStore creates a store rooted at the genesis block. If dir is nonempty
// it is created if needed, its segment log is replayed, and the
// group-commit writer is started; such a store must be Closed.
func NewStore(dir string) (*Store, error) {
	return newStore(dir, segmentBytes)
}

func newStore(dir string, segBytes int64) (*Store, error) {
	s := &Store{
		blocks:  map[uint64]*Block{0: Genesis()},
		headers: make(map[uint64]Header),
	}
	if dir != "" {
		if err := refuseOldLayout(dir); err != nil {
			return nil, err
		}
		var st chainState // the last state record; none is genesis' state
		s.spans = make(map[uint64]span)
		log, report, err := wal.OpenSegments(dir, segmentPrefix, segBytes,
			func(n, _ int) { s.gc.RecordGroup(n) },
			func(seg uint64, p []byte) error {
				if len(p) >= 8 && binary.LittleEndian.Uint64(p) == stateIndex {
					next, err := decodeState(p[8:])
					if err == nil {
						st = next
					}
					return err
				}
				return s.replay(seg, p)
			})
		if err != nil {
			return nil, fmt.Errorf("blockchain: open store: %w", err)
		}
		if err := s.restore(st); err != nil {
			_ = log.Close()
			return nil, err
		}
		s.log = log
		s.recovery = RecoveryReport{Loaded: int(s.head - s.base), RecoveryReport: report}
		if s.base > 0 {
			s.recovery.Loaded++
		}
	}
	s.pendHead = s.head
	s.pendHash = s.blocks[s.head].Hash()
	return s, nil
}

// RecoveryReport describes what opening a disk store found: how many
// blocks made the durable chain, and the torn tail the segment log cut off
// its last segment. The node surfaces it at startup — data loss after a
// crash must be visible, not silent.
type RecoveryReport struct {
	// Loaded counts blocks restored from the base to the head.
	Loaded int
	wal.RecoveryReport
}

// Recovery returns what opening the store found on disk.
func (s *Store) Recovery() RecoveryReport { return s.recovery }

// refuseOldLayout rejects a directory in the retired one-file-per-block
// layout: opening it would start an empty chain beside the old blocks.
func refuseOldLayout(dir string) error {
	old, err := filepath.Glob(filepath.Join(dir, "block-[0-9]*.zc"))
	if err == nil && len(old) > 0 {
		err = fmt.Errorf("blockchain: %s holds %s of the retired one-file-per-block layout; refusing to open it", dir, filepath.Base(old[0]))
	}
	return err
}

// replay installs one block or header frame read back from segment seg.
// Frames must extend the chain read so far; the first one may start past
// genesis, when Prune deleted the segments before it.
func (s *Store) replay(seg uint64, p []byte) error {
	var b *Block
	var h Header
	if len(p) == headerSize {
		h = decodeHeader(wire.NewDecoder(p))
	} else {
		var err error
		if b, err = Unmarshal(p); err != nil {
			return err
		}
		if err := b.Validate(); err != nil {
			return err
		}
		h = b.Header
	}
	switch {
	case s.head > 0 || h.Index == 1:
		if prev := s.headerLocked(s.head); h.Index != s.head+1 || h.PrevHash != prev.Hash() {
			return fmt.Errorf("%w: block %d read after %d", ErrBadLinkage, h.Index, s.head)
		}
	case h.Index == 0:
		return fmt.Errorf("%w: block 0 on disk", ErrBadLinkage)
	default:
		delete(s.blocks, 0)
		s.base = h.Index
	}
	if b != nil {
		s.blocks[h.Index] = b
	} else {
		s.headers[h.Index] = h
	}
	s.head = h.Index
	s.noteSpan(seg, h.Index, h.Index, b != nil)
	return nil
}

// restore applies the last state record replay found to the chain read
// from disk: the base it prunes to, with its authorization, and the
// compaction mark. A chain that starts past genesis needs a prune record
// whose base it reaches.
func (s *Store) restore(st chainState) error {
	if st.base < s.base || st.base > s.head {
		return fmt.Errorf("blockchain: prune base %d outside the chain on disk [%d, %d]", st.base, s.base, s.head)
	}
	for i := s.base; i < st.base; i++ {
		delete(s.blocks, i)
		delete(s.headers, i)
	}
	s.base, s.auth = st.base, st.auth
	if s.blocks[s.base] == nil || s.blocks[s.head] == nil {
		return fmt.Errorf("blockchain: base %d or head %d on disk lacks its body", s.base, s.head)
	}
	s.compactLocked(st.compacted)
	return nil
}

// chainState is the state record Prune and CompactToHeaders append: it
// restates the pruning base with its authorization and the compaction
// mark, so the latest one read back restores both.
type chainState struct {
	base, compacted uint64
	auth            []byte
}

// decodeState decodes a state record's fields, after its stateIndex.
func decodeState(p []byte) (chainState, error) {
	d := wire.NewDecoder(p)
	st := chainState{base: d.Uvarint(), compacted: d.Uvarint(), auth: d.BytesCopy()}
	if d.Remaining() != 0 {
		d.Fail(errors.New("blockchain: trailing bytes after state record"))
	}
	return st, d.Err()
}

// writeState durably appends a state record; a no-op for a memory store.
func (s *Store) writeState(st chainState) error {
	if s.log == nil {
		return nil
	}
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	at := wal.StartFrame(e)
	e.Uint64(stateIndex)
	e.Uvarint(st.base)
	e.Uvarint(st.compacted)
	e.Bytes(st.auth)
	wal.EndFrame(e, at)
	_, err := s.write(e.Data(), 0)
	return err
}

// write durably appends frames carrying n blocks to the segment log and
// returns the segment they landed in.
func (s *Store) write(frames []byte, n int) (uint64, error) {
	seg, err := s.log.Append(frames, n)
	if errors.Is(err, wal.ErrClosed) {
		return 0, ErrClosed
	}
	return seg, err
}

// noteSpan records that segment seg holds blocks [first, last], as full
// blocks or, once rewritten, as headers. Callers hold s.mu.
func (s *Store) noteSpan(seg, first, last uint64, bodies bool) {
	sp, ok := s.spans[seg]
	if !ok {
		sp.first = first
	}
	s.spans[seg] = span{first: min(sp.first, first), last: max(sp.last, last), bodies: bodies}
}

// Append adds a sealed block extending the current head. For a persistent
// store it returns only after the block — and the write group it rode in —
// is fsync'd to disk.
func (s *Store) Append(b *Block) error {
	return s.AppendBatch([]*Block{b})
}

// AppendBatch adds a contiguous run of sealed blocks extending the current
// head, persisting them with one write and one fsync, shared with any
// appends already waiting. Either all blocks are appended or none:
// validation and linkage are checked up front. Used by state transfer (a
// replica installing many fetched blocks at once) and by anything else
// that knows several blocks ahead of time.
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
	// Reserve the slots so a concurrent appender can stack the following
	// blocks — and share our write group — while we wait on the disk. A
	// failed write poisons the segment log, so no later append can
	// succeed past the reservation it leaves behind.
	s.pendHead = next - 1
	s.pendHash = prevHash
	if s.log != nil {
		s.mu.Unlock()
		e := wire.GetEncoder()
		for _, b := range blocks {
			at := wal.StartFrame(e)
			b.Header.encodeTo(e)
			encodeEntries(e, b.Entries)
			wal.EndFrame(e, at)
		}
		seg, err := s.write(e.Data(), len(blocks))
		wire.PutEncoder(e)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.noteSpan(seg, blocks[0].Index, next-1, true)
	}
	for _, b := range blocks {
		s.blocks[b.Index] = b
	}
	s.head = max(s.head, next-1)
	s.mu.Unlock()
	return nil
}

// Sync is a durability barrier: it returns once every write group accepted
// before the call is fsync'd to disk. Export and prune paths call it before
// acting on store contents. No-op for a memory-only store.
func (s *Store) Sync() error {
	if s.log == nil {
		return nil
	}
	s.gc.AddSync()
	_, err := s.write(nil, 0)
	return err
}

// Close stops the group-commit writer; appenders still queued get
// ErrClosed. The store must not be appended to after Close; reads remain
// valid. Safe to call more than once.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// GroupCommits exposes the group-commit writer's counters: write groups,
// each one fsync, the blocks they carried, and explicit sync barriers.
func (s *Store) GroupCommits() *metrics.GroupCommitCounters { return &s.gc }

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
// certificate, kept so a transferred or audited chain can justify its
// non-genesis base. On disk the prune record is durable before any
// segment is deleted, so a store recovered after power loss can always
// justify its base; segments whose blocks all lie below it are deleted.
func (s *Store) Prune(keepFrom uint64, auth []byte) error {
	s.maint.Lock()
	defer s.maint.Unlock()
	s.mu.Lock()
	st := chainState{base: keepFrom, compacted: s.compacted, auth: auth}
	var err error
	switch _, ok := s.blocks[keepFrom]; {
	case keepFrom > s.head:
		err = fmt.Errorf("blockchain: prune base %d above head %d", keepFrom, s.head)
	case keepFrom <= s.base:
		s.mu.Unlock()
		return nil // nothing to do
	case !ok:
		err = fmt.Errorf("%w: prune base %d", ErrNotFound, keepFrom)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.writeState(st); err != nil {
		return err
	}
	s.mu.Lock()
	for i := s.base; i < keepFrom; i++ {
		delete(s.blocks, i)
		delete(s.headers, i)
	}
	s.base, s.auth = keepFrom, auth
	keep := uint64(0) // the oldest segment holding a block at or above the base
	for seg, sp := range s.spans {
		if sp.last < keepFrom {
			delete(s.spans, seg)
		} else if keep == 0 || seg < keep {
			keep = seg
		}
	}
	s.mu.Unlock()
	if keep == 0 {
		return nil // a memory store
	}
	if err := s.log.Drop(keep); err != nil {
		return fmt.Errorf("blockchain: delete pruned segments: %w", err)
	}
	return nil
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
// verifiable anchor. On disk a state record carrying the compaction mark
// is durable first, then every segment holding only compacted blocks is
// rewritten as header frames, which is what reclaims the disk.
func (s *Store) CompactToHeaders(through uint64) error {
	s.maint.Lock()
	defer s.maint.Unlock()
	s.mu.Lock()
	st := chainState{base: s.base, compacted: max(s.compacted, through), auth: s.auth}
	head := s.head
	s.mu.Unlock()
	if through >= head {
		return fmt.Errorf("blockchain: refusing to compact the head")
	}
	if err := s.writeState(st); err != nil {
		return err
	}
	s.mu.Lock()
	s.compactLocked(st.compacted)
	var rewrite []uint64
	for seg, sp := range s.spans {
		if sp.bodies && sp.first > s.base && sp.last <= st.compacted {
			rewrite = append(rewrite, seg)
		}
	}
	s.mu.Unlock()
	for _, seg := range rewrite {
		e := wire.GetEncoder()
		s.mu.RLock()
		sp := s.spans[seg]
		for i := sp.first; i <= sp.last; i++ {
			at := wal.StartFrame(e)
			h := s.headers[i]
			h.encodeTo(e)
			wal.EndFrame(e, at)
		}
		s.mu.RUnlock()
		err := s.log.Rewrite(seg, e.Data())
		wire.PutEncoder(e)
		if err != nil {
			return fmt.Errorf("blockchain: rewrite compacted segment %d: %w", seg, err)
		}
		s.mu.Lock()
		s.noteSpan(seg, sp.first, sp.last, false)
		s.mu.Unlock()
	}
	return nil
}

// compactLocked moves the bodies of blocks in (base, through] to headers.
func (s *Store) compactLocked(through uint64) {
	for i := s.base + 1; i <= through; i++ {
		if b, ok := s.blocks[i]; ok {
			s.headers[i] = b.Header
			delete(s.blocks, i)
		}
	}
	s.compacted = max(s.compacted, through)
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
