package main

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
	"zugchain/internal/transport"
)

// msgClass groups wire frames by their 2-byte little-endian envelope tag.
type msgClass int

const (
	clsPrePrepare msgClass = iota
	clsPrepare
	clsCommit
	clsCheckpoint
	clsViewChange
	clsNewView
	clsZCRequest
	clsExport
	clsOther
	numClasses
)

var classNames = [numClasses]string{
	"preprepare", "prepare", "commit", "checkpoint", "viewchange",
	"newview", "zcrequest", "export", "other",
}

// classify maps a frame to its message class. The tag values are the wire
// protocol's: PBFT owns 0x10–0x15 in declaration order, the communication
// layer's ZCRequest is 0x30, the export protocol owns 0x40–0x4f.
func classify(frame []byte) msgClass {
	if len(frame) < 2 {
		return clsOther
	}
	switch tag := binary.LittleEndian.Uint16(frame); {
	case tag >= 0x10 && tag <= 0x15:
		return clsPrePrepare + msgClass(tag-0x10)
	case tag == 0x30:
		return clsZCRequest
	case tag >= 0x40 && tag <= 0x4f:
		return clsExport
	}
	return clsOther
}

// captureCap bounds how many frames per class the tap keeps for the wire
// codec timings.
const captureCap = 32

// netTap accumulates what every replica hands to its transport. Counting is
// always on; send/deliver timing and frame capture only when timed.
type netTap struct {
	timed bool

	msgs  [numClasses]atomic.Uint64 // frames per destination peer
	bytes [numClasses]atomic.Uint64 // bytes per destination peer
	calls [numClasses]atomic.Uint64 // Send/Broadcast calls

	sendNs, sendN       atomic.Uint64
	deliverNs, deliverN atomic.Uint64

	mu       sync.Mutex
	captured [numClasses][][]byte
}

func (t *netTap) capture(cls msgClass, data []byte) {
	t.mu.Lock()
	if len(t.captured[cls]) < captureCap {
		t.captured[cls] = append(t.captured[cls], append([]byte(nil), data...))
	}
	t.mu.Unlock()
}

func (t *netTap) count(data []byte, copies int) msgClass {
	cls := classify(data)
	t.msgs[cls].Add(uint64(copies))
	t.bytes[cls].Add(uint64(copies * len(data)))
	t.calls[cls].Add(1)
	if t.timed {
		t.capture(cls, data)
	}
	return cls
}

// tapTransport wraps a replica's transport, feeding a netTap. It passes the
// transport's own pipeline counters and flushing through.
type tapTransport struct {
	under transport.Transport
	tap   *netTap
	peers int // destinations of one Broadcast
}

var _ transport.Transport = (*tapTransport)(nil)

func (w *tapTransport) LocalID() crypto.NodeID { return w.under.LocalID() }

func (w *tapTransport) Send(to crypto.NodeID, data []byte) error {
	w.tap.count(data, 1)
	if !w.tap.timed {
		return w.under.Send(to, data)
	}
	t0 := time.Now()
	err := w.under.Send(to, data)
	w.tap.sendNs.Add(uint64(time.Since(t0)))
	w.tap.sendN.Add(1)
	return err
}

func (w *tapTransport) Broadcast(data []byte) error {
	w.tap.count(data, w.peers)
	if !w.tap.timed {
		return w.under.Broadcast(data)
	}
	t0 := time.Now()
	err := w.under.Broadcast(data)
	w.tap.sendNs.Add(uint64(time.Since(t0)))
	w.tap.sendN.Add(1)
	return err
}

func (w *tapTransport) SetHandler(h transport.Handler) {
	if !w.tap.timed {
		w.under.SetHandler(h)
		return
	}
	w.under.SetHandler(func(from crypto.NodeID, data []byte) {
		t0 := time.Now()
		h(from, data)
		w.tap.deliverNs.Add(uint64(time.Since(t0)))
		w.tap.deliverN.Add(1)
	})
}

func (w *tapTransport) Close() error { return w.under.Close() }

// NetCounters passes the wrapped transport's pipeline counters through, so
// the node still registers them.
func (w *tapTransport) NetCounters() *metrics.NetCounters {
	if ns, ok := w.under.(transport.NetStats); ok {
		return ns.NetCounters()
	}
	return nil
}

// Flush passes through to a buffering transport.
func (w *tapTransport) Flush() {
	if f, ok := w.under.(transport.Flusher); ok {
		f.Flush()
	}
}

// countingClock counts every timer the program arms.
type countingClock struct {
	clock.Clock
	timers *atomic.Uint64
}

func (c countingClock) NewTimer(d time.Duration) clock.Timer {
	c.timers.Add(1)
	return c.Clock.NewTimer(d)
}

func (c countingClock) After(d time.Duration) <-chan time.Time {
	c.timers.Add(1)
	return c.Clock.After(d)
}
