package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer would move with a handful of requests.
const minBeyond = 10

// pct is one reported percentile: the value, the percentile actually
// used (lowered from the requested one when the sample is too small to
// leave minBeyond samples above it), the samples above it and the total.
type pct struct {
	Value  float64
	Q      float64
	Beyond int
	N      int
	OK     bool
}

// percentile returns the nearest-rank q-quantile of samples, or the
// highest quantile below it that still has minBeyond samples beyond it.
// samples must be sorted ascending. With fewer than minBeyond+1 samples
// no percentile is defined and OK is false.
func percentile(samples []float64, q float64) pct {
	n := len(samples)
	if n <= minBeyond {
		return pct{N: n}
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1-minBeyond {
		idx = n - 1 - minBeyond
	}
	return pct{
		Value:  samples[idx],
		Q:      float64(idx+1) / float64(n),
		Beyond: n - 1 - idx,
		N:      n,
		OK:     true,
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// durs converts durations to float64 in the given unit, sorted.
func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// ratio returns num/den, or NaN for an empty base so a missing base
// cannot pass for a zero ratio.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// cpuTime returns the CPU time, user plus system, the process has used
// so far, across all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
