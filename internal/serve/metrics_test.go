package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/outcome"
)

// TestMetricsGoldenExposition pins the Prometheus text rendering of the
// serving metrics byte-for-byte against testdata/metrics_golden.txt —
// family names, label order, histogram bucket bounds, and cumulative
// semantics are all part of the scrape contract.
func TestMetricsGoldenExposition(t *testing.T) {
	m := NewMetrics()
	m.requestStarted()
	m.requestStarted()
	m.requestDone()
	m.observeRequest(statusOK, 3*time.Millisecond, 5)
	m.observeRequest(statusOK, 100*time.Millisecond, 7)
	m.observeRequest(statusDeadline, 250*time.Millisecond, 2)
	m.observeRejected(statusInvalid)
	m.observeRejected(statusDraining)
	m.observeSLOViolation()
	m.observeInjected()
	m.observeInjected()
	m.observeDetection(3)
	m.observeOutcome(outcome.Masked)
	m.observeOutcome(outcome.SDCDistorted)
	m.observeTTFT(2 * time.Millisecond)
	m.observeTTFT(30 * time.Millisecond)
	m.observeInterToken(500 * time.Microsecond)
	m.observeInterToken(500 * time.Microsecond)
	m.observeInterToken(700 * time.Microsecond)

	var b strings.Builder
	p := obs.NewMetricsWriter(&b)
	WriteMetricsText(p, m.Snapshot())
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// TestMetricsHistogramBuckets pins the bucket edges: le semantics
// (latency equal to a bound lands in that bucket) and +Inf overflow.
func TestMetricsHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	m.observeRequest(statusOK, time.Microsecond, 0)   // == first bound
	m.observeRequest(statusOK, 2*time.Microsecond, 0) // == second bound
	m.observeRequest(statusOK, 40*time.Second, 0)     // past the last bound
	s := m.Snapshot()
	if s.LatBuckets[0] != 1 || s.LatBuckets[1] != 1 {
		t.Fatalf("boundary latencies landed in %v", s.LatBuckets[:3])
	}
	if s.LatBuckets[nLatencyBuckets] != 1 {
		t.Fatalf("+Inf bucket = %d", s.LatBuckets[nLatencyBuckets])
	}
	if s.LatCount != 3 {
		t.Fatalf("count = %d", s.LatCount)
	}
}

// TestReqStatusNames pins the metric label values.
func TestReqStatusNames(t *testing.T) {
	want := map[reqStatus]string{
		statusOK:       "ok",
		statusInvalid:  "invalid",
		statusDeadline: "deadline_exceeded",
		statusCanceled: "canceled",
		statusDraining: "draining",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(st), st.String(), name)
		}
	}
}
