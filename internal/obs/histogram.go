package obs

import (
	"slices"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free latency histogram over the exponential
// bounds 1µs·2^i, i < n, plus a +Inf overflow bucket. A latency lands
// in the first bucket whose bound is at least its float seconds, so one
// equal to a bound lands in that bound's bucket (Prometheus le
// semantics). Observe is safe for concurrent use; Snapshot samples each
// counter atomically, not the set as a whole.
type Histogram struct {
	bounds  []float64
	count   atomic.Int64
	sumNS   atomic.Int64
	buckets []atomic.Int64
}

// NewHistogram returns an empty histogram with n finite buckets, the
// last bounded at 1µs·2^(n-1).
func NewHistogram(n int) *Histogram {
	h := &Histogram{bounds: make([]float64, n), buckets: make([]atomic.Int64, n+1)}
	v := 1e-6
	for i := range h.bounds {
		h.bounds[i] = v
		v *= 2
	}
	return h
}

// Bounds returns the finite bucket upper bounds in seconds. The slice is
// shared; callers must not modify it.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	i, _ := slices.BinarySearch(h.bounds, d.Seconds())
	h.buckets[i].Add(1)
}

// Reset zeroes every counter.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sumNS.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// HistogramSnapshot is a histogram's counters at one read: the
// observation count, their sum in seconds, and per-bucket (not
// cumulative) counts aligned with Bounds plus the +Inf bucket.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Buckets []int64
}

// Snapshot reads the counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     time.Duration(h.sumNS.Load()).Seconds(),
		Buckets: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}
