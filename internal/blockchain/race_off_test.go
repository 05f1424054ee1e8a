//go:build !race

package blockchain

const raceEnabled = false
