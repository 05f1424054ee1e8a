package obsv

import (
	"fmt"
	"sync"
	"time"

	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
)

// EventKind classifies a consensus journal event.
type EventKind string

// Journal event kinds.
const (
	// EventRecovery: a restarting replica reconstructed state from disk.
	EventRecovery EventKind = "recovery"
	// EventNewPrimary: a view became active (view 0 at startup, or after
	// a view change — View > 0 entries are the primary elections).
	EventNewPrimary EventKind = "new-primary"
	// EventViewChangeSent: this replica gave up on the current primary
	// and broadcast a ViewChange.
	EventViewChangeSent EventKind = "view-change-sent"
	// EventWALRotation: the WAL compacted to a snapshot at a stable
	// checkpoint.
	EventWALRotation EventKind = "wal-rotation"
	// EventStateTransferNeeded: the quorum certified state beyond this
	// replica; a fetch was scheduled.
	EventStateTransferNeeded EventKind = "state-transfer-needed"
	// EventStateTransfer: transferred blocks were installed.
	EventStateTransfer EventKind = "state-transfer"
	// EventPersistFailure: the WAL rejected a protocol append; the
	// replica muted its outbound votes (sticky).
	EventPersistFailure EventKind = "persist-failure"
)

// Event is one structured consensus journal entry.
type Event struct {
	At   time.Time     `json:"at"`
	Kind EventKind     `json:"kind"`
	View uint64        `json:"view,omitempty"`
	Seq  uint64        `json:"seq,omitempty"`
	Node crypto.NodeID `json:"node,omitempty"`
	// Detail is free-form human-readable context.
	Detail string `json:"detail,omitempty"`
}

// String renders the event as one journal line.
func (e Event) String() string {
	s := fmt.Sprintf("%s %-21s view=%d seq=%d node=%v",
		e.At.Format("15:04:05.000"), e.Kind, e.View, e.Seq, e.Node)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// DefaultJournalSize is the journal's default event retention.
const DefaultJournalSize = 512

// Journal is a bounded ring of consensus events: view changes, primary
// elections, WAL rotations, state transfers, recovery outcomes. Recording
// is O(1) and allocation-free past the fixed ring; the oldest events are
// overwritten. All methods are nil-safe and safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	ring []Event
	n    uint64 // total recorded (monotonic)
}

// NewJournal returns a journal retaining size events (DefaultJournalSize
// when size <= 0).
func NewJournal(size int) *Journal {
	if size <= 0 {
		size = DefaultJournalSize
	}
	return &Journal{ring: make([]Event, size)}
}

// Record appends one event, stamping At when unset.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	j.mu.Lock()
	j.ring[j.n%uint64(len(j.ring))] = e
	j.n++
	j.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	size := uint64(len(j.ring))
	if j.n < size {
		size = j.n
	}
	out := make([]Event, 0, size)
	for i := uint64(0); i < size; i++ {
		out = append(out, j.ring[(j.n-size+i)%uint64(len(j.ring))])
	}
	return out
}

// Total reports how many events were recorded over the journal's lifetime
// (retained or overwritten).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// CountKind reports how many retained events have the given kind.
func (j *Journal) CountKind(kind EventKind) int {
	n := 0
	for _, e := range j.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// RegisterOn exports journal totals into a registry.
func (j *Journal) RegisterOn(r *Registry) {
	if j == nil {
		return
	}
	r.Register("journal", func() []metrics.Metric {
		return []metrics.Metric{
			metrics.Counter("zugchain_events_total", "Consensus journal events recorded", j.Total()),
		}
	})
}
