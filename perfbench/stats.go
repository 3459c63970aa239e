package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail figure resting on fewer is noise, not a percentile.
const minBeyond = 10

// tailQuantile is the highest quantile, capped at want, that has at least
// minBeyond of n samples beyond it. It returns 0.5 when n is too small to
// support any tail above the median.
func tailQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := 1 - float64(minBeyond)/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks, or 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// latencySummary is a timing reported the way every latency in this
// benchmark is: the median plus the tail percentile the sample count
// supports, with that count.
type latencySummary struct {
	N    int     // samples
	P50  float64 // median
	Tail float64 // value at quantile TailQ
	// TailQ is the quantile actually reported as the tail: the wanted one
	// (0.99) when at least minBeyond samples lie beyond it, lower
	// otherwise.
	TailQ float64
	Max   float64
}

// summarize sorts xs in place and reports its median and the supported
// tail up to want.
func summarize(xs []float64, want float64) latencySummary {
	sort.Float64s(xs)
	s := latencySummary{N: len(xs), TailQ: tailQuantile(len(xs), want)}
	if len(xs) == 0 {
		return s
	}
	s.P50 = quantile(xs, 0.5)
	s.Tail = quantile(xs, s.TailQ)
	s.Max = xs[len(xs)-1]
	return s
}

// median returns the median of xs without modifying it (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (a layer absent from the workload's
// path reports 0, never NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
