//go:build race

package blockchain

// raceEnabled skips the allocation guards: under the race detector
// sync.Pool drops a share of returned items on purpose, so pooled paths
// allocate.
const raceEnabled = true
