package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// nearest rank: the smallest element with at least p% of the sample at
// or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of xs (mean of the two middle elements for
// an even count) without reordering the caller's slice; 0 for no data.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// sortedMicros converts durations to ascending microseconds.
func sortedMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	sort.Float64s(out)
	return out
}

// tailPercentile picks the highest of p99 and p90 that still has at
// least ten samples beyond it, as the choosing-metrics guide asks, and
// returns which percentile that was beside its value.
func tailPercentile(sorted []float64) (pct, value float64) {
	pct = 90
	if len(sorted) >= 1000 {
		pct = 99
	}
	return pct, percentile(sorted, pct)
}

// normTime expresses a duration measured while the reference kernel
// took ref seconds as the duration it would have had at reference
// speed, where the kernel takes refNominalS.
func normTime(t, ref float64) float64 { return t * refNominalS / ref }

// normRate is normTime for a rate: a slow machine (ref above nominal)
// completes fewer operations per second, so the rate scales up.
func normRate(r, ref float64) float64 { return r * ref / refNominalS }

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) computes them
// (exclusive method), which is what the driver applies to ten runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
