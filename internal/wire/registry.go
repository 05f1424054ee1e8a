package wire

import (
	"fmt"
	"sync"
)

// Type tags a protocol message inside the wire envelope. Each protocol
// package owns a contiguous range so tags never collide:
//
//	0x10–0x2f  PBFT (internal/pbft)
//	0x30–0x3f  ZugChain communication layer (internal/core)
//	0x40–0x4f  export protocol (internal/export)
//	0x50–0x5f  baseline client handling (internal/baseline)
type Type uint16

// Message is any protocol message that can travel inside a wire envelope.
type Message interface {
	// WireType returns the registered envelope tag for this message.
	WireType() Type
	// EncodeWire appends the message body (without the envelope tag).
	EncodeWire(e *Encoder)
	// DecodeWire parses the message body. Implementations must leave the
	// receiver unmodified semantics-wise on decoder error (the caller
	// checks d.Err and discards the value).
	DecodeWire(d *Decoder)
}

var (
	registryMu sync.RWMutex
	registry   = make(map[Type]func() Message)
)

// Register installs a factory for the given message type. It must be called
// before any Unmarshal of that type, typically from the owning package's
// init. Registering the same type twice panics: tag collisions are
// programming errors.
func Register(t Type, factory func() Message) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[t]; dup {
		panic(fmt.Sprintf("wire: duplicate registration for type %#x", uint16(t)))
	}
	registry[t] = factory
}

// Marshal encodes msg with its envelope tag prepended. The result is
// allocated once, at its exact size.
func Marshal(msg Message) []byte {
	return Encode(func(e *Encoder) {
		e.Uint16(uint16(msg.WireType()))
		msg.EncodeWire(e)
	})
}

// decoders recycles Unmarshal's decoder: handed to DecodeWire through an
// interface call, a fresh one would escape to the heap on every message.
var decoders = sync.Pool{
	New: func() any { return new(Decoder) },
}

// Unmarshal decodes an enveloped message produced by Marshal. It rejects
// unknown type tags and trailing garbage so Byzantine peers cannot smuggle
// extra payload bytes past signature checks.
//
// The message keeps no reference to data: every registered decoder copies
// the byte strings it keeps (Decoder.BytesCopy), so callers may reuse data
// as soon as Unmarshal returns — transports lend each frame only for the
// duration of the handler call.
func Unmarshal(data []byte) (Message, error) {
	d := decoders.Get().(*Decoder)
	*d = Decoder{buf: data}
	msg, err := unmarshal(d)
	*d = Decoder{} // hold no reference to data in the pool
	decoders.Put(d)
	return msg, err
}

func unmarshal(d *Decoder) (Message, error) {
	t := Type(d.Uint16())
	if d.Err() != nil {
		return nil, d.Err()
	}
	registryMu.RLock()
	factory, ok := registry[t]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: unknown message type %#x", uint16(t))
	}
	msg := factory()
	msg.DecodeWire(d)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("wire: decode %#x: %w", uint16(t), err)
	}
	if d.Remaining() != 0 {
		return nil, ErrTrailingBytes
	}
	return msg, nil
}
