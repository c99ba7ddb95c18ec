package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: with fewer, the percentile is a guess about one or two
// outliers, so the next lower rung of tailRungs is reported instead.
const minBeyond = 10

// tailRungs are the percentiles a tail metric steps down through when
// there are too few samples for the one asked for.
var tailRungs = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile returns the highest percentile no greater than p with at
// least minBeyond samples beyond it, with the percentile actually used.
// With too few samples for any rung it falls back to the median.
func tailPercentile(sorted []float64, p float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), p
	}
	for _, q := range tailRungs {
		if q > p {
			continue
		}
		if beyond(n, q) >= minBeyond {
			return quantile(sorted, q), q
		}
	}
	return quantile(sorted, 0.5), 0.5
}

// beyond is how many of n sorted samples rank strictly above the
// q-quantile's interpolation point (see quantile). The epsilon keeps
// float error in q·(n-1) from dropping a sample at exact ranks.
func beyond(n int, q float64) int {
	m := n - 1
	return m - int(math.Floor(q*float64(m)+1e-9))
}

// quantile is the linear-interpolation quantile of sorted data (the
// "R-7" definition, as numpy's default).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// sortedMS converts durations to sorted milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (a layer the workload does
// not exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
