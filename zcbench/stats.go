package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles the tail metric may report, highest
// first.
var tailLadder = []float64{99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it. It reports false when n is too
// small for any of them.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// centralBand is the half-width, in percentiles, of the band around the
// median that p50 averages.
const centralBand = 5

// central returns the mean of the samples from the 45th to the 55th
// percentile of sorted: the median, smoothed. Recorded latencies bunch at
// one level per record position in a block (ten levels a bus cycle apart
// on train), and the plain median jumps a whole level when a few records
// shift across it.
func central(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	lo := int(math.Ceil(float64(50-centralBand)/100*float64(len(sorted)))) - 1
	hi := int(math.Ceil(float64(50+centralBand)/100*float64(len(sorted)))) - 1
	lo = max(lo, 0)
	var sum float64
	for _, x := range sorted[lo : hi+1] {
		sum += x
	}
	return sum / float64(hi-lo+1)
}

// latencySummary is the median and tail of one run's latency samples.
type latencySummary struct {
	n        int
	p50      float64
	tail     float64
	tailPct  float64
	maxValue float64
}

// summarize sorts xs in place and reports its median and tail. With too
// few samples for any ladder percentile, the tail is the maximum.
func summarize(xs []float64) latencySummary {
	sort.Float64s(xs)
	s := latencySummary{n: len(xs), p50: central(xs)}
	if len(xs) == 0 {
		return s
	}
	s.maxValue = xs[len(xs)-1]
	if p, ok := tailPercentile(len(xs)); ok {
		s.tailPct, s.tail = p, percentile(xs, p)
	} else {
		s.tailPct, s.tail = 100, s.maxValue
	}
	return s
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}
