package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the value is one outlier's, not the tail's.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted and whether at least minBeyond samples lie beyond it. The
// median is always supported: it is the centre, not a tail.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// p/100*n is 9990.000000000002 for p99.9 of 10,000: shave the float
	// fuzz before rounding up, or the rank is one too high.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], p <= 50 || n-rank >= minBeyond
}

// supportedPercentile is percentile with 0 for an unsupported tail, the
// form metrics with a fixed percentile in their name are reported in.
func supportedPercentile(sorted []float64, p float64) float64 {
	v, ok := percentile(sorted, p)
	if !ok {
		return 0
	}
	return v
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles when even),
// 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is what the driver applies to ten runs. It needs two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	m := len(xs)
	if m < 2 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise a bound has to stand clear of.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return math.Abs(q3-q1) / math.Abs(med), true
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
