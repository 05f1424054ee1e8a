package signal

// FilterPolicy says how a signal kind is reduced before logging, mirroring
// JRU practice (§III-A: "filter the data according to relevance and for
// higher efficiency as is common practice in JRUs, e.g., to log the speed
// only upon changes").
type FilterPolicy uint8

const (
	// LogAlways records the signal every cycle it appears.
	LogAlways FilterPolicy = iota + 1
	// LogOnChange records the signal only when its value differs from the
	// previously recorded one on the same port.
	LogOnChange
)

// Filter applies per-port change detection. It is stateful: one Filter per
// bus connection, fed in cycle order. Filters run identically on every node
// (the transformation steps are "verified and approved" per §III-A), so
// identical bus input yields identical filtered output on all nodes.
type Filter struct {
	policies map[Kind]FilterPolicy
	last     map[uint16]channels
}

// channels is what change detection compares: a signal's value channels,
// without its opaque bytes, which no policy looks at.
type channels struct {
	value    float64
	discrete uint32
}

// DefaultPolicies reflect typical JRU configuration: continuous channels are
// logged on change, discrete events always.
func DefaultPolicies() map[Kind]FilterPolicy {
	return map[Kind]FilterPolicy{
		KindSpeed:          LogOnChange,
		KindOdometer:       LogOnChange,
		KindBrakePressure:  LogOnChange,
		KindTraction:       LogOnChange,
		KindCabSignal:      LogOnChange,
		KindDoorState:      LogOnChange,
		KindEmergencyBrake: LogAlways,
		KindATPCommand:     LogAlways,
		KindBulkData:       LogAlways,
	}
}

// NewFilter creates a filter with the given policies; kinds without a policy
// default to LogAlways.
func NewFilter(policies map[Kind]FilterPolicy) *Filter {
	if policies == nil {
		policies = DefaultPolicies()
	}
	return &Filter{
		policies: policies,
		last:     make(map[uint16]channels),
	}
}

// Apply returns the subset of signals that must be logged for this cycle.
// When every signal passes, the input slice itself is returned and nothing
// is allocated; otherwise the kept signals are copied into a new slice, so
// the input is never modified.
func (f *Filter) Apply(signals []Signal) []Signal {
	for i := range signals {
		if f.keep(&signals[i]) {
			continue
		}
		out := append([]Signal(nil), signals[:i]...)
		for j := i + 1; j < len(signals); j++ {
			if f.keep(&signals[j]) {
				out = append(out, signals[j])
			}
		}
		return out
	}
	return signals
}

// keep reports whether s must be logged and, if so, remembers its value
// channels for the next cycle's comparison.
func (f *Filter) keep(s *Signal) bool {
	if !f.shouldLog(s) {
		return false
	}
	f.last[s.Port] = channels{value: s.Value, discrete: s.Discrete}
	return true
}

func (f *Filter) shouldLog(s *Signal) bool {
	policy, ok := f.policies[s.Kind]
	if !ok {
		policy = LogAlways
	}
	if policy == LogAlways {
		return true
	}
	prev, seen := f.last[s.Port]
	if !seen {
		return true
	}
	return prev.value != s.Value || prev.discrete != s.Discrete
}

// Reset clears the change-detection state, e.g. after a bus reconnect when
// continuity with the previous values is no longer guaranteed.
func (f *Filter) Reset() {
	f.last = make(map[uint16]channels)
}
