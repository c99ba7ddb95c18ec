package obs

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets pins the shape and le semantics: bounds 1µs·2^i,
// a latency equal to a bound lands in that bucket, and anything past
// the last bound lands in +Inf.
func TestHistogramBuckets(t *testing.T) {
	for _, n := range []int{22, 26} {
		h := NewHistogram(n)
		b := h.Bounds()
		if len(b) != n || b[0] != 1e-6 || b[n-1] != 1e-6*float64(int64(1)<<(n-1)) {
			t.Fatalf("n=%d: bounds %v", n, b)
		}
		h.Observe(time.Microsecond)       // == first bound
		h.Observe(2 * time.Microsecond)   // == second bound
		h.Observe(1500 * time.Nanosecond) // between them
		h.Observe(time.Duration(b[n-1]*1e9) + 1)
		s := h.Snapshot()
		if len(s.Buckets) != n+1 {
			t.Fatalf("n=%d: %d buckets, want %d", n, len(s.Buckets), n+1)
		}
		if s.Buckets[0] != 1 || s.Buckets[1] != 2 || s.Buckets[n] != 1 {
			t.Fatalf("n=%d: buckets %v", n, s.Buckets)
		}
		if want := (time.Microsecond + 3500*time.Nanosecond + time.Duration(b[n-1]*1e9) + 1).Seconds(); s.Count != 4 || s.Sum != want {
			t.Fatalf("n=%d: count %d sum %v, want 4 and %v", n, s.Count, s.Sum, want)
		}
		h.Reset()
		if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Buckets[0] != 0 || s.Buckets[n] != 0 {
			t.Fatalf("n=%d: Reset left %+v", n, s)
		}
	}
}

// TestHistogramConcurrentObserve: concurrent observers lose nothing —
// the count, the sum and the bucket total all match the observations
// made. Run under -race it also proves Observe and Snapshot lock-free
// safe together.
func TestHistogramConcurrentObserve(t *testing.T) {
	const workers, per = 8, 2000
	h := NewHistogram(22)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		h.Snapshot() // concurrent reads
	}
	wg.Wait()
	s := h.Snapshot()
	const n = workers * per
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	wantSum := (time.Duration(n*(n-1)/2) * time.Microsecond).Seconds()
	if s.Count != n || total != n || s.Sum != wantSum {
		t.Fatalf("count %d, bucket total %d, sum %v; want %d, %d, %v", s.Count, total, s.Sum, n, n, wantSum)
	}
}
