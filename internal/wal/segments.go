package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"zugchain/internal/wire"
)

// Segments is an append-only log of CRC-32C framed payloads kept in
// numbered segment files, the durable primitive under both the
// write-ahead log and the block store. One writer goroutine owns the
// files: every append waiting when it takes the disk joins one group,
// which costs one write and one fsync. Opening replays the frames in
// order and cuts a torn tail off the last segment; damage anywhere else
// refuses to open, since a segment is complete and fsync'd before the
// next one is created, and only the last can hold a crash's torn write.
// All methods are safe for concurrent use.
type Segments struct {
	dir     string
	prefix  string
	maxSize int64          // open a new segment before a group once the active one passes this; 0 = never
	onGroup func(n, b int) // observes each durable group: items and bytes

	writeCh   chan *segReq
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// Writer-goroutine state: only the writer touches these after open.
	f    *os.File
	seg  uint64
	size int64
	buf  []byte
}

type segOp uint8

const (
	opAppend  segOp = iota
	opRotate        // start segment seg+1 seeded with frames
	opDrop          // delete every segment numbered below seg
	opRewrite       // atomically replace segment seg with frames
)

type segReq struct {
	op     segOp
	frames []byte
	n      int
	seg    uint64 // opDrop, opRewrite: the target; answered: where frames landed
	err    chan error
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// MaxRecordSize bounds one frame's payload, as the transport bounds a
// message: a block, the largest payload, arrives as one. Recovery reads a
// segment whole, so a garbage length costs no allocation either way.
const MaxRecordSize = 64 << 20

const frameHeaderSize = 8

// castagnoli is the CRC-32C polynomial, the standard choice for storage
// framing (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	errShortFrame = errors.New("wal: short frame")
	errBadCRC     = errors.New("wal: frame checksum mismatch")
	errFrameSize  = errors.New("wal: frame exceeds max record size")
)

// StartFrame reserves a frame header on e and returns its offset; the
// payload is whatever is encoded next, up to the matching EndFrame.
// On disk a frame is
//
//	[uint32 payload len][uint32 CRC-32C of payload][payload]
func StartFrame(e *wire.Encoder) int {
	at := e.Len()
	e.Uint64(0)
	return at
}

// EndFrame fills in the header StartFrame reserved at offset at.
func EndFrame(e *wire.Encoder, at int) {
	header := e.Data()[at : at+frameHeaderSize]
	payload := e.Data()[at+frameHeaderSize:]
	binary.LittleEndian.PutUint32(header, uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:], crc32.Checksum(payload, castagnoli))
}

// ReadFrame returns the payload of the frame at the front of buf and the
// bytes the frame spans. A short header, an oversized length, a short
// payload or a checksum mismatch is an error: recovery treats that
// position as a torn write.
func ReadFrame(buf []byte) ([]byte, int, error) {
	if len(buf) < frameHeaderSize {
		return nil, 0, errShortFrame
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > MaxRecordSize {
		return nil, 0, errFrameSize
	}
	end := frameHeaderSize + int(n)
	if len(buf) < end {
		return nil, 0, errShortFrame
	}
	payload := buf[frameHeaderSize:end]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:]) {
		return nil, 0, errBadCRC
	}
	return payload, end, nil
}

// OpenSegments opens (creating if necessary) the segments prefix-N.log in
// dir and hands every frame's payload, in order, to replay with the
// segment holding it. The first frame that is torn, or that replay
// rejects, ends the log: in the last segment it and everything after it
// are cut off and reported; in an earlier segment it is an error. The
// payload slice is only valid during the call. maxSize > 0 starts a new
// segment once the active one has grown past it, always at a group
// boundary; onGroup observes every durable append group.
func OpenSegments(dir, prefix string, maxSize int64, onGroup func(n, b int), replay func(seg uint64, payload []byte) error) (*Segments, RecoveryReport, error) {
	var report RecoveryReport
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, report, err
	}
	l := &Segments{dir: dir, prefix: prefix, maxSize: maxSize, onGroup: onGroup}
	segs, err := l.list()
	if err != nil {
		return nil, report, err
	}
	for i, seg := range segs {
		buf, err := os.ReadFile(l.path(seg))
		if err != nil {
			return nil, report, err
		}
		off := 0
		for off < len(buf) {
			payload, n, err := ReadFrame(buf[off:])
			if err == nil {
				err = replay(seg, payload)
			}
			if err != nil {
				if i < len(segs)-1 {
					return nil, report, fmt.Errorf("wal: %s at offset %d, before the last segment: %w", l.path(seg), off, err)
				}
				report.TruncatedBytes = int64(len(buf) - off)
				if err := os.Truncate(l.path(seg), int64(off)); err != nil {
					return nil, report, err
				}
				break
			}
			report.Records++
			off += n
		}
		l.size = int64(off)
	}
	l.seg = 1
	if len(segs) > 0 {
		l.seg = segs[len(segs)-1]
	}
	if l.f, err = os.OpenFile(l.path(l.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, report, err
	}
	if len(segs) == 0 || report.Truncated() {
		if err := syncDir(dir); err != nil {
			l.f.Close()
			return nil, report, err
		}
	}
	l.writeCh = make(chan *segReq)
	l.quit = make(chan struct{})
	l.done = make(chan struct{})
	go l.commitLoop()
	return l, report, nil
}

// Append durably writes frames, n items' worth built with StartFrame and
// EndFrame, returning once they and every append queued before them are
// fsync'd, with the segment they landed in. Appends waiting together
// share one write and one fsync. Empty frames make a barrier: it returns
// once every earlier append is durable.
func (l *Segments) Append(frames []byte, n int) (uint64, error) {
	return l.submit(opAppend, frames, n, 0)
}

// Rotate starts a new segment seeded with frames and returns its number.
// Appends queued behind it land in the new segment.
func (l *Segments) Rotate(frames []byte) (uint64, error) {
	return l.submit(opRotate, frames, 0, 0)
}

// Drop deletes every segment numbered below seg, never the active one.
func (l *Segments) Drop(seg uint64) error {
	_, err := l.submit(opDrop, nil, 0, seg)
	return err
}

// Rewrite atomically replaces the contents of segment seg, which must not
// be the active one, with frames: a fsync'd temp file renamed over it.
func (l *Segments) Rewrite(seg uint64, frames []byte) error {
	_, err := l.submit(opRewrite, frames, 0, seg)
	return err
}

// segReqs recycles requests with their reply channels: the writer is done
// with a request once it has replied, so an append allocates neither.
var segReqs = sync.Pool{New: func() any { return &segReq{err: make(chan error, 1)} }}

func (l *Segments) submit(op segOp, frames []byte, n int, seg uint64) (uint64, error) {
	req := segReqs.Get().(*segReq)
	*req = segReq{op: op, frames: frames, n: n, seg: seg, err: req.err}
	defer segReqs.Put(req)
	select {
	case l.writeCh <- req:
		err := <-req.err
		seg, req.frames = req.seg, nil
		return seg, err
	case <-l.quit:
		req.frames = nil
		return 0, ErrClosed
	}
}

// Close stops the writer and closes the active segment. Appends not yet
// taken by the writer fail with ErrClosed. Safe to call more than once.
func (l *Segments) Close() error {
	l.closeOnce.Do(func() { close(l.quit) })
	<-l.done
	return nil
}

// commitLoop is the single writer goroutine: it takes one request, absorbs
// every append already waiting behind it, and retires them with one write
// and one fsync; any other operation runs alone, after the appends before
// it. A failure is sticky: once a write or fsync fails nothing more may be
// acknowledged as durable.
func (l *Segments) commitLoop() {
	defer close(l.done)
	defer l.f.Close()
	var failed error
	var next *segReq // an operation the last drain took but could not group
	group := make([]*segReq, 0, 16)
	for {
		if next == nil {
			select {
			case <-l.quit:
				return
			case next = <-l.writeCh:
			}
		}
		group = append(group[:0], next)
		next = nil
	drain:
		for group[0].op == opAppend {
			select {
			case req := <-l.writeCh:
				if req.op != opAppend {
					next = req
					break drain
				}
				group = append(group, req)
			default:
				break drain
			}
		}
		if failed == nil {
			failed = l.commit(group)
		}
		for _, req := range group {
			req.seg = l.seg
			req.err <- failed
		}
	}
}

// commit runs one group of appends, or one other operation.
func (l *Segments) commit(group []*segReq) error {
	switch req := group[0]; req.op {
	case opRotate:
		return l.rotate(req.frames)
	case opDrop:
		return l.drop(req.seg)
	case opRewrite:
		if req.seg >= l.seg {
			return fmt.Errorf("wal: rewrite of active segment %d", req.seg)
		}
		return l.writeFile(req.seg, req.frames)
	}
	l.buf = l.buf[:0]
	n := 0
	for _, req := range group {
		l.buf = append(l.buf, req.frames...)
		n += req.n
	}
	if len(l.buf) == 0 {
		return nil // barriers only: earlier groups are already durable
	}
	if l.maxSize > 0 && l.size >= l.maxSize {
		if err := l.rotate(nil); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size += int64(len(l.buf))
	l.onGroup(n, len(l.buf))
	return nil
}

// rotate creates segment seg+1 seeded with frames and makes it durable,
// file and directory entry, before any later write can depend on it.
func (l *Segments) rotate(frames []byte) error {
	next := l.seg + 1
	if err := l.writeFile(next, frames); err != nil {
		return err
	}
	nf, err := os.OpenFile(l.path(next), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	l.f.Close()
	l.f, l.seg, l.size = nf, next, int64(len(frames))
	return nil
}

// drop deletes the segments below seg, oldest first, then syncs the
// directory. A crash midway leaves a suffix of them, which replay still
// reads in order.
func (l *Segments) drop(seg uint64) error {
	segs, err := l.list()
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s >= seg || s >= l.seg {
			break
		}
		if err := os.Remove(l.path(s)); err != nil {
			return err
		}
	}
	return syncDir(l.dir)
}

func (l *Segments) path(seg uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s-%08d.log", l.prefix, seg))
}

// list returns the numbers of the segment files in the directory, in
// ascending order.
func (l *Segments) list() ([]uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	prefix := l.prefix + "-"
	for _, e := range entries {
		digits, ok := strings.CutPrefix(e.Name(), prefix)
		if !ok {
			continue
		}
		if digits, ok = strings.CutSuffix(digits, ".log"); !ok {
			continue
		}
		// Only the names path writes: at least eight digits, zero-padded
		// to exactly eight.
		if len(digits) < 8 || len(digits) > 8 && digits[0] == '0' {
			continue
		}
		if n, err := strconv.ParseUint(digits, 10, 64); err == nil && n > 0 {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// writeFile durably replaces segment seg with data: fsync'd temp file,
// rename, directory fsync.
func (l *Segments) writeFile(seg uint64, data []byte) error {
	path := l.path(seg)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	return syncDir(l.dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
