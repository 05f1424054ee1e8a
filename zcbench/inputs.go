package main

import (
	"encoding/binary"
	"fmt"

	"zugchain/internal/mvb"
	"zugchain/internal/signal"
)

// splitmix64 is the deterministic filler for generated payloads.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fill(b []byte, key uint64) {
	for i := 0; i < len(b); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], splitmix64(key+uint64(i)))
		copy(b[i:], w[:])
	}
}

// busFrame is bus cycle id: continuous and discrete channels that change
// every cycle, so per-port change detection passes all of them whatever
// state a reader's filter is in, plus bulk data padding the record to
// size ± sizeJitter bytes, drawn from the seed.
func busFrame(seed int64, id uint64, size int) mvb.Frame {
	key := uint64(seed)<<32 ^ id
	size += int(splitmix64(^key)%(2*sizeJitter+1)) - sizeJitter
	off := float64(seed%1000) / 10
	k := float64(id)
	sigs := []signal.Signal{
		{Port: signal.PortSpeed, Kind: signal.KindSpeed, Value: off + k*0.5},
		{Port: signal.PortOdometer, Kind: signal.KindOdometer, Value: off + k*0.9},
		{Port: signal.PortBrake, Kind: signal.KindBrakePressure, Value: off + k*0.01},
		{Port: signal.PortDoors, Kind: signal.KindDoorState, Discrete: uint32(id)},
		{Port: signal.PortTraction, Kind: signal.KindTraction, Value: off - k*0.25},
		{Port: signal.PortATP, Kind: signal.KindATPCommand, Discrete: uint32(id % 5)},
		{Port: signal.PortBulk, Kind: signal.KindBulkData},
	}
	base := len((&signal.Record{Cycle: id, Signals: sigs}).Marshal())
	if need := size - base - 1; need > 0 {
		opaque := make([]byte, need)
		fill(opaque, key)
		sigs[len(sigs)-1].Opaque = opaque
	}
	f := mvb.Frame{Cycle: id}
	for _, s := range sigs {
		f.Ports = append(f.Ports, mvb.PortData{Port: s.Port, Data: signal.EncodePort(s)})
	}
	return f
}

// sizeJitter is how far a bus record's size strays from the nominal size.
const sizeJitter = 64

// busRecord is the record every replica derives from frame through the
// MVB parse and the signal filter. The benchmark runs its own filter over
// the same frames and fails when it would drop a signal, since then
// replicas with different filter histories could derive different records.
func busRecord(frame mvb.Frame, filter *signal.Filter) ([]byte, error) {
	rec, errs := mvb.ParseFrame(frame)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	kept := filter.Apply(rec.Signals)
	if len(kept) != len(rec.Signals) {
		return nil, fmt.Errorf("cycle %d: filter kept %d of %d signals", frame.Cycle, len(kept), len(rec.Signals))
	}
	out := signal.Record{Cycle: rec.Cycle, Signals: kept}
	return out.Marshal(), nil
}

// busIdent recovers the bus cycle of a record payload.
func busIdent(p []byte) (uint64, bool) {
	r, err := signal.UnmarshalRecord(p)
	if err != nil {
		return 0, false
	}
	return r.Cycle, true
}
