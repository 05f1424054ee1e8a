package signal

import (
	"fmt"

	"zugchain/internal/wire"
)

// EncodePort serializes a signal's value channels into the raw process-data
// bytes transmitted on its MVB port. This is the "raw format" of §III-A from
// which nodes later derive the signal.
func EncodePort(s Signal) []byte {
	e := wire.NewEncoder(16 + len(s.Opaque))
	e.Byte(byte(s.Kind))
	e.Float64(s.Value)
	e.Uint32(s.Discrete)
	e.Bytes(s.Opaque)
	return e.Data()
}

// DecodePort parses raw port bytes back into a signal. It is the verified
// transformation step shared with the JRU: deterministic and side-effect
// free, so all correct nodes derive identical signals from identical bytes.
// The signal's Opaque bytes alias data, which the caller must not modify
// while the signal is in use; Record.Marshal copies them into the record.
func DecodePort(port uint16, data []byte, cycle uint64) (Signal, error) {
	d := wire.NewDecoder(data)
	s := Signal{
		Port:     port,
		Kind:     Kind(d.Byte()),
		Value:    d.Float64(),
		Discrete: d.Uint32(),
		Opaque:   d.Bytes(),
		Cycle:    cycle,
	}
	if err := d.Err(); err != nil {
		return Signal{}, fmt.Errorf("signal: decode port %#x: %w", port, err)
	}
	if d.Remaining() != 0 {
		return Signal{}, fmt.Errorf("signal: port %#x: %d trailing bytes", port, d.Remaining())
	}
	if s.Kind == 0 || s.Kind > KindBulkData {
		return Signal{}, fmt.Errorf("signal: port %#x: invalid kind %d", port, uint8(s.Kind))
	}
	return s, nil
}
