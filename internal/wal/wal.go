// Package wal is an append-only write-ahead log for the PBFT layer's
// stable-storage requirement: Castro–Liskov replicas must log protocol
// messages before sending them so a crashed replica comes back remembering
// what it vouched for. Log is a Record codec over Segments, the CRC-32C
// framed, group-committed segment log it shares with the block store: one
// fsync covers every append waiting at that moment, and recovery on open
// replays the longest valid prefix and reports — rather than silently
// drops — any torn tail a crash left behind. Checkpoint-based truncation
// is a segment rotation: the caller hands the log a compact snapshot of
// live state, which seeds a fresh segment, and every older segment is
// deleted.
package wal

import (
	"zugchain/internal/metrics"
	"zugchain/internal/wire"
)

// RecoveryReport describes what opening a segment log found on disk.
type RecoveryReport struct {
	// Records counts the frames replayed.
	Records int
	// TruncatedBytes counts the torn tail bytes cut off the last segment.
	TruncatedBytes int64
}

// Truncated reports whether recovery discarded anything.
func (r RecoveryReport) Truncated() bool { return r.TruncatedBytes > 0 }

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	seg      *Segments
	counters metrics.WALCounters
}

const walPrefix = "wal"

// Open opens (creating if necessary) the log in dir, replays every valid
// record in segment order, and starts the group-commit writer. The replayed
// records are returned in append order for the caller to interpret; the
// report says whether a torn tail was discarded.
func Open(dir string) (*Log, []Record, RecoveryReport, error) {
	l := &Log{}
	var records []Record
	seg, report, err := OpenSegments(dir, walPrefix, 0, l.counters.RecordGroup, func(_ uint64, payload []byte) error {
		r, err := DecodeRecord(payload)
		if err == nil {
			records = append(records, r)
		}
		return err
	})
	if err != nil {
		return nil, nil, report, err
	}
	l.seg = seg
	l.counters.RecordReplay(len(records), report.TruncatedBytes)
	return l, records, report, nil
}

// Counters exposes the log's instrumentation.
func (l *Log) Counters() *metrics.WALCounters { return &l.counters }

// Batch frames records into one pooled buffer as they are added, so an
// append or a rotation snapshot is encoded once, straight into the bytes
// the log writes. The zero value is an empty batch; AppendBatch and
// RotateBatch consume it.
type Batch struct {
	e *wire.Encoder
	n int
}

// Add frames r onto the batch.
func (b *Batch) Add(r Record) {
	if b.e == nil {
		b.e = wire.GetEncoder()
	}
	at := StartFrame(b.e)
	appendRecord(b.e, &r)
	EndFrame(b.e, at)
	b.n++
}

// Len reports the number of records added.
func (b *Batch) Len() int { return b.n }

// frames returns the framed records.
func (b *Batch) frames() []byte {
	if b.e == nil {
		return nil
	}
	return b.e.Data()
}

// reset empties b, returning its buffer to the pool.
func (b *Batch) reset() {
	if b.e != nil {
		wire.PutEncoder(b.e)
	}
	*b = Batch{}
}

// Append durably writes recs, returning once they (and every record queued
// before them) have been fsync'd. Concurrent appends are group-committed:
// all requests waiting when the writer gets the disk share one fsync.
func (l *Log) Append(recs ...Record) error {
	var b Batch
	for _, r := range recs {
		b.Add(r)
	}
	return l.AppendBatch(&b)
}

// AppendBatch is Append for records framed into b, which it empties.
func (l *Log) AppendBatch(b *Batch) error {
	defer b.reset()
	if b.n == 0 {
		return nil
	}
	_, err := l.seg.Append(b.frames(), b.n)
	return err
}

// Rotate starts a fresh segment seeded with snapshot — the caller's compact
// restatement of all state still live after a stable checkpoint — then
// deletes every older segment. Appends queued behind the rotation land in
// the new segment. Crash-safety: the new segment is durable, file and
// directory entry, before any old segment is removed, so recovery finds
// the old segments intact, the snapshot, or both; replaying both is
// harmless because snapshot records restate rather than contradict the
// old state.
func (l *Log) Rotate(snapshot []Record) error {
	var b Batch
	for _, r := range snapshot {
		b.Add(r)
	}
	return l.RotateBatch(&b)
}

// RotateBatch is Rotate for a snapshot framed into b, which it empties.
func (l *Log) RotateBatch(b *Batch) error {
	defer b.reset()
	seg, err := l.seg.Rotate(b.frames())
	if err == nil {
		err = l.seg.Drop(seg)
	}
	if err == nil {
		l.counters.AddRotation()
	}
	return err
}

// Close stops the writer and closes the active segment. Pending appends
// fail with ErrClosed.
func (l *Log) Close() error { return l.seg.Close() }
