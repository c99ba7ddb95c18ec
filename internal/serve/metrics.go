package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/outcome"
)

// reqStatus labels a finished (or rejected) request.
type reqStatus int

const (
	statusOK reqStatus = iota
	statusInvalid
	statusDeadline
	statusCanceled
	statusDraining

	nStatus
)

// String names the status as exported in metric labels.
func (s reqStatus) String() string {
	switch s {
	case statusOK:
		return "ok"
	case statusInvalid:
		return "invalid"
	case statusDeadline:
		return "deadline_exceeded"
	case statusCanceled:
		return "canceled"
	case statusDraining:
		return "draining"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// nLatencyBuckets is the finite bucket count of the serving latency
// histograms: the campaign phase histograms' 1µs-doubling shape
// (internal/core), extended to 26 buckets (~33.6s) because requests
// outlive kernel phases.
const nLatencyBuckets = 26

// Metrics is the per-request serving instrumentation: request counters
// by status, an exponential latency histogram, SLO violations, the
// in-flight gauge, and campaign-mode injection/outcome counters. All
// methods are safe for concurrent use (lock-free atomics on the hot
// path, matching the campaign telemetry's design).
type Metrics struct {
	inFlight      atomic.Int64
	requests      [nStatus]atomic.Int64
	tokens        atomic.Int64
	sloViolations atomic.Int64

	latency    *obs.Histogram
	ttft       *obs.Histogram
	interToken *obs.Histogram

	injected atomic.Int64
	detected atomic.Int64
	outcomes [3]atomic.Int64
}

// NewMetrics returns zeroed serving metrics.
func NewMetrics() *Metrics {
	return &Metrics{
		latency:    obs.NewHistogram(nLatencyBuckets),
		ttft:       obs.NewHistogram(nLatencyBuckets),
		interToken: obs.NewHistogram(nLatencyBuckets),
	}
}

func (m *Metrics) requestStarted() { m.inFlight.Add(1) }
func (m *Metrics) requestDone()    { m.inFlight.Add(-1) }

// observeRequest records one finished request.
func (m *Metrics) observeRequest(st reqStatus, latency time.Duration, tokens int) {
	m.requests[st].Add(1)
	m.tokens.Add(int64(tokens))
	m.latency.Observe(latency)
}

// observeTTFT records one request's time to first token.
func (m *Metrics) observeTTFT(d time.Duration) { m.ttft.Observe(d) }

// observeInterToken records one gap between consecutive decode tokens
// of a request.
func (m *Metrics) observeInterToken(d time.Duration) { m.interToken.Observe(d) }

// observeRejected records a request refused before it ran.
func (m *Metrics) observeRejected(st reqStatus) { m.requests[st].Add(1) }

func (m *Metrics) observeSLOViolation() { m.sloViolations.Add(1) }

func (m *Metrics) observeInjected() { m.injected.Add(1) }

func (m *Metrics) observeDetection(flagged int) { m.detected.Add(int64(flagged)) }

func (m *Metrics) observeOutcome(c outcome.Class) {
	if c >= 0 && int(c) < len(m.outcomes) {
		m.outcomes[c].Add(1)
	}
}

// MetricsSnapshot is a consistent-enough copy of the counters for
// rendering (individual counters are atomic; the set is sampled live).
// Each latency histogram is flattened into Buckets (per bucket, aligned
// with Bounds, +Inf last), Count and Sum (seconds) fields.
type MetricsSnapshot struct {
	InFlight      int64
	Requests      [nStatus]int64
	Tokens        int64
	SLOViolations int64
	Bounds        []float64
	LatBuckets    []int64
	LatCount      int64
	LatSum        float64
	TTFTBuckets   []int64
	TTFTCount     int64
	TTFTSum       float64
	ITBuckets     []int64
	ITCount       int64
	ITSum         float64
	Injected      int64
	Detected      int64
	Outcomes      [3]int64
}

// Snapshot samples the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	s.InFlight = m.inFlight.Load()
	for i := range s.Requests {
		s.Requests[i] = m.requests[i].Load()
	}
	s.Tokens = m.tokens.Load()
	s.SLOViolations = m.sloViolations.Load()
	s.Bounds = m.latency.Bounds()
	lat, ttft, it := m.latency.Snapshot(), m.ttft.Snapshot(), m.interToken.Snapshot()
	s.LatBuckets, s.LatCount, s.LatSum = lat.Buckets, lat.Count, lat.Sum
	s.TTFTBuckets, s.TTFTCount, s.TTFTSum = ttft.Buckets, ttft.Count, ttft.Sum
	s.ITBuckets, s.ITCount, s.ITSum = it.Buckets, it.Count, it.Sum
	s.Injected = m.injected.Load()
	s.Detected = m.detected.Load()
	for i := range s.Outcomes {
		s.Outcomes[i] = m.outcomes[i].Load()
	}
	return s
}

// WriteMetricsText renders the snapshot onto p deterministically (fixed
// family and label order), in the same style as the campaign metrics
// renderer (internal/report).
func WriteMetricsText(p *obs.MetricsWriter, s MetricsSnapshot) {
	p.Family("llmfi_serve_in_flight", "gauge", "Requests currently being served.")
	p.Int("llmfi_serve_in_flight", s.InFlight)

	p.Family("llmfi_serve_requests_total", "counter", "Finished requests by terminal status.")
	for st := reqStatus(0); st < nStatus; st++ {
		p.Int("llmfi_serve_requests_total", s.Requests[st], "status", st.String())
	}

	p.Family("llmfi_serve_tokens_total", "counter", "Generated tokens returned to clients.")
	p.Int("llmfi_serve_tokens_total", s.Tokens)

	p.Family("llmfi_serve_slo_violations_total", "counter", "Finished requests slower than the configured SLO.")
	p.Int("llmfi_serve_slo_violations_total", s.SLOViolations)

	hist := func(name, help string, buckets []int64, count int64, sum float64) {
		p.Family(name, "histogram", help)
		p.Histogram(name, s.Bounds, buckets, count, sum)
	}
	hist("llmfi_serve_request_latency_seconds", "End-to-end request latency.",
		s.LatBuckets, s.LatCount, s.LatSum)
	hist("llmfi_serve_ttft_seconds", "Time from request submission to first generated token.",
		s.TTFTBuckets, s.TTFTCount, s.TTFTSum)
	hist("llmfi_serve_inter_token_seconds", "Gap between consecutive decode tokens of a request.",
		s.ITBuckets, s.ITCount, s.ITSum)

	p.Family("llmfi_serve_injected_total", "counter", "Requests served with an armed fault.")
	p.Int("llmfi_serve_injected_total", s.Injected)

	p.Family("llmfi_serve_detected_total", "counter", "ABFT checks flagged across served requests.")
	p.Int("llmfi_serve_detected_total", s.Detected)

	p.Family("llmfi_serve_outcome_total", "counter", "Classified request outcomes under injection.")
	for c := outcome.Masked; c <= outcome.SDCDistorted; c++ {
		p.Int("llmfi_serve_outcome_total", s.Outcomes[c], "class", c.String())
	}
}
