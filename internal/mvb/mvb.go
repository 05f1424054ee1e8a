// Package mvb simulates the Multifunction Vehicle Bus (IEC 61375-3-1), the
// time-triggered train bus ZugChain reads its input from. A bus master polls
// the attached source devices once per cycle and delivers the consolidated
// process-data frame to every attached reader.
//
// The simulator reproduces the properties §III-B builds on:
//
//   - time-triggered: exactly one frame per cycle, paced by the bus master;
//   - unauthenticated: port data carries no source identification;
//   - unreliable per node: each reader has an independent fault injector
//     for dropped frames, bit flips [9], delayed (cycle-shifted) delivery,
//     and divergent reads, so different nodes can observe different input
//     in the same cycle.
//
// The paper's testbed accesses a real MVB through a proprietary Siemens
// library; this package is the drop-in substitute documented in DESIGN.md.
package mvb

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"zugchain/internal/clock"
	"zugchain/internal/signal"
)

// PortData is the raw content of one process-data port in one cycle.
type PortData struct {
	Port uint16
	Data []byte
}

// Frame is everything transmitted on the bus during one cycle.
type Frame struct {
	Cycle uint64
	Ports []PortData
}

// clonePorts deep-copies port data so per-reader corruption cannot leak
// between readers.
func clonePorts(ports []PortData) []PortData {
	out := make([]PortData, len(ports))
	for i, p := range ports {
		data := make([]byte, len(p.Data))
		copy(data, p.Data)
		out[i] = PortData{Port: p.Port, Data: data}
	}
	return out
}

// PortEntry describes one configured port, NSDB-style (§V-A: each component
// carries a node supervisor database file specifying its signals).
type PortEntry struct {
	Port uint16
	Name string
}

// NSDB is the bus configuration: the set of known ports.
type NSDB struct {
	Entries []PortEntry
}

// DefaultNSDB lists the juridical ports served by the signal generator.
func DefaultNSDB() NSDB {
	return NSDB{Entries: []PortEntry{
		{Port: signal.PortSpeed, Name: "speed"},
		{Port: signal.PortOdometer, Name: "odometer"},
		{Port: signal.PortBrake, Name: "brake-pressure"},
		{Port: signal.PortDoors, Name: "doors"},
		{Port: signal.PortCabSignal, Name: "cab-signal"},
		{Port: signal.PortTraction, Name: "traction"},
		{Port: signal.PortATP, Name: "atp-command"},
		{Port: signal.PortEmergency, Name: "emergency-brake"},
		{Port: signal.PortBulk, Name: "bulk-data"},
	}}
}

// Knows reports whether the port appears in the configuration.
func (n NSDB) Knows(port uint16) bool {
	for _, e := range n.Entries {
		if e.Port == port {
			return true
		}
	}
	return false
}

// Device is a data source polled by the bus master each cycle, e.g. the ATP.
type Device interface {
	// Poll returns the port data the device transmits in the given cycle.
	Poll(cycle uint64) []PortData
}

// DeviceFunc adapts a function to the Device interface.
type DeviceFunc func(cycle uint64) []PortData

// Poll implements Device.
func (f DeviceFunc) Poll(cycle uint64) []PortData { return f(cycle) }

// Config parameterizes a Bus.
type Config struct {
	// CycleTime is the bus cycle duration (the MVB minimum is 32 ms; the
	// paper's common value is 64 ms). Only used by Run; Tick ignores it.
	CycleTime time.Duration
	// NSDB is the port configuration. Unknown ports are discarded by the
	// master, as a real MVB master would not poll them.
	NSDB NSDB
}

// Bus is the simulated MVB with its master.
type Bus struct {
	cfg Config

	mu      sync.Mutex
	devices []Device
	readers []*Reader
	cycle   uint64
}

// NewBus creates a bus with the given configuration.
func NewBus(cfg Config) *Bus {
	if cfg.CycleTime <= 0 {
		cfg.CycleTime = 64 * time.Millisecond
	}
	if len(cfg.NSDB.Entries) == 0 {
		cfg.NSDB = DefaultNSDB()
	}
	return &Bus{cfg: cfg}
}

// Attach adds a source device.
func (b *Bus) Attach(dev Device) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.devices = append(b.devices, dev)
}

// NewReader attaches a reader with the given fault profile. seed
// de-correlates fault decisions between readers.
func (b *Bus) NewReader(faults FaultConfig, seed int64) *Reader {
	r := &Reader{
		faults: faults,
		rng:    rand.New(rand.NewSource(seed)),
		ch:     make(chan Frame, 256),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.readers = append(b.readers, r)
	return r
}

// Cycle reports the number of completed cycles.
func (b *Bus) Cycle() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cycle
}

// Tick runs exactly one bus cycle: the master polls all devices, merges
// their port data (first writer wins per port, as port ownership is unique
// on a real MVB), and delivers the frame to each reader through its fault
// injector. It returns the delivered master frame.
func (b *Bus) Tick() Frame {
	b.mu.Lock()
	cycle := b.cycle
	b.cycle++
	devices := make([]Device, len(b.devices))
	copy(devices, b.devices)
	readers := make([]*Reader, len(b.readers))
	copy(readers, b.readers)
	b.mu.Unlock()

	seen := make(map[uint16]bool)
	var ports []PortData
	for _, dev := range devices {
		for _, p := range dev.Poll(cycle) {
			if !b.cfg.NSDB.Knows(p.Port) || seen[p.Port] {
				continue
			}
			seen[p.Port] = true
			ports = append(ports, p)
		}
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i].Port < ports[j].Port })

	frame := Frame{Cycle: cycle, Ports: ports}
	for _, r := range readers {
		r.offer(frame)
	}
	return frame
}

// Run drives Tick on every cycle boundary until ctx is cancelled. It uses
// clk so tests may pace the bus with a fake clock.
func (b *Bus) Run(ctx context.Context, clk clock.Clock) {
	for {
		timer := clk.NewTimer(b.cfg.CycleTime)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C():
			b.Tick()
		}
	}
}

// ParseFrame derives the parsed signals from a raw frame using the shared,
// verified transformation (§III-A). Ports that fail to parse — e.g. after a
// bit flip hit the encoding — are reported in errs but do not prevent the
// remaining ports from being parsed; a real JRU logs what it can read.
// Opaque signal bytes alias the frame's port data.
func ParseFrame(f Frame) (*signal.Record, []error) {
	signals, errs := AppendSignals(make([]signal.Signal, 0, len(f.Ports)), f)
	return &signal.Record{Cycle: f.Cycle, Signals: signals}, errs
}

// AppendSignals is ParseFrame appending to dst, so a reader that parses
// every cycle can reuse one slice: parsing then allocates nothing unless a
// port fails.
func AppendSignals(dst []signal.Signal, f Frame) ([]signal.Signal, []error) {
	var errs []error
	for _, p := range f.Ports {
		s, err := signal.DecodePort(p.Port, p.Data, f.Cycle)
		if err != nil {
			errs = append(errs, fmt.Errorf("cycle %d: %w", f.Cycle, err))
			continue
		}
		dst = append(dst, s)
	}
	return dst, errs
}

// SignalDevice adapts a signal.Generator to the bus Device interface,
// encoding each generated signal onto its port.
type SignalDevice struct {
	gen *signal.Generator
}

// NewSignalDevice wraps gen as a bus device.
func NewSignalDevice(gen *signal.Generator) *SignalDevice {
	return &SignalDevice{gen: gen}
}

// Poll implements Device.
func (d *SignalDevice) Poll(cycle uint64) []PortData {
	signals := d.gen.Generate(cycle)
	ports := make([]PortData, len(signals))
	for i, s := range signals {
		ports[i] = PortData{Port: s.Port, Data: signal.EncodePort(s)}
	}
	return ports
}
