// Package signal models the juridical train signals ZugChain records: the
// IEC 62625-style process data (speed, brake state, doors, ATP interventions)
// that the original JRU logs, an ATP-style workload generator that stands in
// for the paper's DDC signal generator, the parse/filter pipeline of §III-A
// ("From Signals to Blocks"), and the consolidation of one bus cycle's
// signals into a single BFT request payload.
package signal

import (
	"fmt"

	"zugchain/internal/wire"
)

// Kind identifies a juridical signal category (IEC 62625-1 appendix-style).
type Kind uint8

// Signal kinds recorded by the JRU.
const (
	KindSpeed Kind = iota + 1
	KindOdometer
	KindBrakePressure
	KindEmergencyBrake
	KindDoorState
	KindATPCommand
	KindCabSignal
	KindTraction
	KindBulkData // opaque pre-encrypted payload logged as-is (§III-A)
)

var kindNames = map[Kind]string{
	KindSpeed:          "speed",
	KindOdometer:       "odometer",
	KindBrakePressure:  "brake-pressure",
	KindEmergencyBrake: "emergency-brake",
	KindDoorState:      "door-state",
	KindATPCommand:     "atp-command",
	KindCabSignal:      "cab-signal",
	KindTraction:       "traction",
	KindBulkData:       "bulk-data",
}

// String returns the signal kind name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Signal is one parsed juridical value read from a bus port.
type Signal struct {
	// Port is the MVB process-data port the value was read from.
	Port uint16
	// Kind classifies the signal.
	Kind Kind
	// Value carries the numeric channel (speed in km/h, pressure in bar,
	// odometer in m, traction in kN).
	Value float64
	// Discrete carries the discrete channel (door bitmap, ATP command
	// code, cab signal aspect).
	Discrete uint32
	// Cycle is the bus cycle in which the signal was transmitted. It is
	// the bus-time reference the JRU stores with each event.
	Cycle uint64
	// Opaque holds pre-encrypted payload bytes for KindBulkData; logged
	// without interpretation, as the JRU does.
	Opaque []byte
}

// encodeTo appends the signal to e in the canonical port-data layout.
func (s *Signal) encodeTo(e *wire.Encoder) {
	e.Uint16(s.Port)
	e.Byte(byte(s.Kind))
	e.Float64(s.Value)
	e.Uint32(s.Discrete)
	e.Uint64(s.Cycle)
	e.Bytes(s.Opaque)
}

func decodeSignal(d *wire.Decoder) Signal {
	return Signal{
		Port:     d.Uint16(),
		Kind:     Kind(d.Byte()),
		Value:    d.Float64(),
		Discrete: d.Uint32(),
		Cycle:    d.Uint64(),
		Opaque:   d.BytesCopy(),
	}
}

// Record is the set of signals observed in one bus cycle, consolidated into
// one BFT request per §III-B ("All signals transmitted in a bus cycle are
// consolidated into one BFT request").
type Record struct {
	// Cycle is the bus cycle the record covers.
	Cycle uint64
	// Signals are the parsed, filtered signals of that cycle.
	Signals []Signal
}

// Marshal encodes the record into the request payload format understood by
// JRU analysis tooling (here: the wire codec). Encoding is deterministic:
// identical records on different nodes yield identical payload bytes, which
// is what makes payload-based duplicate filtering possible.
func (r *Record) Marshal() []byte {
	return wire.Encode(func(e *wire.Encoder) {
		e.Uint64(r.Cycle)
		e.Uvarint(uint64(len(r.Signals)))
		for i := range r.Signals {
			r.Signals[i].encodeTo(e)
		}
	})
}

// UnmarshalRecord decodes a payload produced by Record.Marshal.
func UnmarshalRecord(data []byte) (*Record, error) {
	d := wire.NewDecoder(data)
	r := &Record{Cycle: d.Uint64()}
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("signal: record claims %d signals in %d bytes", n, d.Remaining())
	}
	r.Signals = make([]Signal, 0, n)
	for i := uint64(0); i < n; i++ {
		r.Signals = append(r.Signals, decodeSignal(d))
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("signal: unmarshal record: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("signal: %d trailing bytes in record", d.Remaining())
	}
	return r, nil
}
