package main

import (
	"math"
	"sort"
	"time"
)

// value is one reported metric: the statistic itself plus the sample
// count behind it and the range of those samples.
type value struct {
	V   float64 `json:"value"`
	N   int     `json:"n"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Short is set when a percentile has fewer than ten samples beyond
	// it; the value is still reported but not to be trusted.
	Short bool `json:"short,omitempty"`
}

func single(v float64) value { return value{V: v, N: 1, Min: v, Max: v} }

// medianOf summarizes per-window samples as their median (the mean of
// the middle two when their number is even).
func medianOf(xs []float64) value {
	if len(xs) == 0 {
		return value{}
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	m := xs[len(xs)/2]
	if len(xs)%2 == 0 {
		m = (xs[len(xs)/2-1] + m) / 2
	}
	return value{V: m, N: len(xs), Min: xs[0], Max: xs[len(xs)-1]}
}

// quartileOf summarizes per-window samples of a time or a rate by
// the quartile on the good side: the lower quartile when lower is
// better, the upper when higher is. On a shared host interference is
// one-sided — it only ever slows a window down — and it arrives in
// stretches of seconds, so the median of a run's windows moves with
// how much of the run was disturbed (measured: +-13% between runs of
// identical single-threaded work) while the good-side quartile stays
// on undisturbed windows (+-5%). Ratios of interleaved pairs are
// disturbed on both sides alike and keep the median.
func quartileOf(xs []float64, better string) value {
	if len(xs) == 0 {
		return value{}
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	q := 0.25
	if better == "higher" {
		q = 0.75
	}
	// Nearest rank from the good end, so that with few windows the
	// pick leans towards the quiet side.
	idx := int(math.Round(q * float64(len(xs)-1)))
	return value{V: xs[idx], N: len(xs), Min: xs[0], Max: xs[len(xs)-1]}
}

// quantileIndex is the exact (nearest-rank, no interpolation) index of
// quantile q in a sorted sample of n, and how many samples lie beyond.
func quantileIndex(n int, q float64) (idx, beyond int) {
	if n == 0 {
		return 0, 0
	}
	idx = int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx, n - 1 - idx
}

// percentile reports quantile q of sorted latencies in microseconds.
func percentile(sorted []time.Duration, q float64) value {
	n := len(sorted)
	if n == 0 {
		return value{}
	}
	idx, beyond := quantileIndex(n, q)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return value{V: us(sorted[idx]), N: n, Min: us(sorted[0]), Max: us(sorted[n-1]),
		Short: q > 0.5 && beyond < 10}
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// windowCount picks how many windows a measured phase of length d is
// cut into: four a second, never fewer than seven. Interference on a
// shared host comes in bursts of tens of milliseconds, so many short
// windows leave the median on an undisturbed one where a few long
// windows would each carry some of it.
func windowCount(d time.Duration) int {
	return min(max(int(d/(250*time.Millisecond)), 7), 120)
}

// relWorse is how much worse b is than a, as a share of a, in the
// metric's direction; negative when b is better.
func relWorse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
