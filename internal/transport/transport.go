// Package transport moves encoded protocol messages between ZugChain
// participants over the secondary (non-safety-critical) link — the Ethernet
// network of §III-A. Two implementations are provided:
//
//   - Network/Endpoint: an in-process simulated network with configurable
//     latency, jitter, loss and partitions, plus per-node byte accounting.
//     All evaluation scenarios run on it.
//   - TCP: a real TCP transport with length-prefixed frames for multi-process
//     deployments (cmd/zugchain, cmd/zc-datacenter).
//
// The transport is deliberately unauthenticated: every protocol message is
// signed at the protocol layer, so transport-level tampering is equivalent to
// a Byzantine peer and is handled there.
package transport

import (
	"errors"

	"zugchain/internal/crypto"
	"zugchain/internal/metrics"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownPeer is returned when sending to an unregistered node.
var ErrUnknownPeer = errors.New("transport: unknown peer")

// Handler consumes an inbound message. data is valid only for the call:
// a transport may lend it out of a reused buffer (TCP hands each frame
// straight out of the connection's read buffer) and overwrite it once the
// handler returns. A handler that needs the bytes later — a relay queued
// on another goroutine, say — copies or re-encodes them; protocol messages
// decoded with wire.Unmarshal own copies of everything they keep. Handlers
// are invoked sequentially per connection; a node with several connections
// to the same peer may see concurrent invocations.
type Handler func(from crypto.NodeID, data []byte)

// Transport sends encoded messages to peers and delivers inbound messages to
// a handler, lending each inbound message for the handler call only (see
// Handler).
//
// Sends are asynchronous and non-blocking: Send and Broadcast hand the
// message to a bounded outbound queue and return without waiting for
// connection establishment, remote reads, or even local write syscalls. A
// slow, dead, or unreachable peer therefore never stalls the caller — its
// queue fills and the transport drops the oldest queued messages. This
// at-most-once behaviour is safe for ZugChain because every protocol layer
// above already tolerates loss: PBFT retransmits via its timeout/view-change
// machinery, and the communication layer re-broadcasts open requests.
type Transport interface {
	// LocalID returns the ID this transport sends as.
	LocalID() crypto.NodeID
	// Send transmits data to a single peer. Delivery is best-effort:
	// a nil error means queued, not delivered (links and queues may drop).
	// The caller may reuse data as soon as Send returns.
	Send(to crypto.NodeID, data []byte) error
	// Broadcast transmits data to every known peer except the local node.
	// Each peer has its own queue; per-peer failures are isolated.
	Broadcast(data []byte) error
	// SetHandler installs the inbound delivery callback. It must be called
	// before any messages arrive.
	SetHandler(h Handler)
	// Close releases resources and stops delivery.
	Close() error
}

// Flusher is an optional interface for transports that buffer outbound
// writes: Flush pushes buffered frames toward the wire without waiting for
// them. No transport in this module buffers (TCP writes as soon as its queue
// drains), so none implements it; the declaration stays because the
// separate zcbench module type-asserts it.
type Flusher interface {
	Flush()
}

// NetStats is optionally implemented by transports that keep outbound
// pipeline counters (TCP, the in-process Endpoint, and wrappers that pass
// through to one). The observability layer discovers the counters through
// this interface so it can export them without knowing the concrete type.
type NetStats interface {
	NetCounters() *metrics.NetCounters
}
