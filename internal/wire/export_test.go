package wire

import "sort"

// RegisteredTypes returns every registered type tag in ascending order, so
// tests outside the package can check they cover each one.
func RegisteredTypes() []Type {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Type, 0, len(registry))
	for t := range registry {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SampleTestMsg returns an instance of the message type this package's
// own tests register, which RegisteredTypes lists too.
func SampleTestMsg() Message { return &testMsg{A: 7, B: []byte("internal")} }
