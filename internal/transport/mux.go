package transport

import (
	"encoding/binary"
	"sync"

	"zugchain/internal/crypto"
)

// Mux splits one Transport into virtual channels by wire message type tag
// (the first two bytes of every encoded message, little-endian). ZugChain
// uses it to run the PBFT protocol, the communication layer's request
// broadcasts, and the export protocol over the single on-train Ethernet
// link, each subsystem seeing its own Transport.
type Mux struct {
	under Transport

	mu     sync.RWMutex
	ranges []muxRange
}

type muxRange struct {
	lo, hi  uint16
	handler *Handler // indirection: channel handler can be set after Route
}

// NewMux wraps under. The mux takes over under's handler; callers must not
// call under.SetHandler afterwards.
func NewMux(under Transport) *Mux {
	m := &Mux{under: under}
	under.SetHandler(m.dispatch)
	return m
}

// Channel returns a virtual Transport receiving messages whose wire type tag
// falls in [lo, hi]. Sends pass through unmodified.
func (m *Mux) Channel(lo, hi uint16) Transport {
	h := new(Handler)
	m.mu.Lock()
	m.ranges = append(m.ranges, muxRange{lo: lo, hi: hi, handler: h})
	m.mu.Unlock()
	return &muxChannel{mux: m, handler: h}
}

// Close closes the underlying transport.
func (m *Mux) Close() error { return m.under.Close() }

func (m *Mux) dispatch(from crypto.NodeID, data []byte) {
	if len(data) < 2 {
		return
	}
	tag := binary.LittleEndian.Uint16(data)
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, r := range m.ranges {
		if tag >= r.lo && tag <= r.hi {
			if h := *r.handler; h != nil {
				h(from, data)
			}
			return
		}
	}
}

type muxChannel struct {
	mux     *Mux
	handler *Handler
}

var _ Transport = (*muxChannel)(nil)

func (c *muxChannel) LocalID() crypto.NodeID { return c.mux.under.LocalID() }

func (c *muxChannel) Send(to crypto.NodeID, data []byte) error {
	return c.mux.under.Send(to, data)
}

func (c *muxChannel) Broadcast(data []byte) error {
	return c.mux.under.Broadcast(data)
}

func (c *muxChannel) SetHandler(h Handler) {
	c.mux.mu.Lock()
	*c.handler = h
	c.mux.mu.Unlock()
}

// Close is a no-op on a channel; close the Mux (or underlying transport)
// to release resources.
func (c *muxChannel) Close() error { return nil }
