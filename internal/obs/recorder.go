package obs

import (
	"sync"
	"time"
)

// Config configures a Recorder.
type Config struct {
	// Service names the process role stamped on every span this
	// recorder emits (serve, campaign, coordinator, worker).
	Service string
	// Sample controls root sampling: 0 disables recording entirely,
	// 1 records every root, N records every Nth root (the first, the
	// N+1th, ...). Child spans follow their root's decision — the
	// caller only starts a trace after SampleRoot says yes.
	Sample int
	// Sink, when set, receives every recorded span (e.g. the Write of
	// a JSONLWriter[Span]). A sink error stops further sink writes and
	// is surfaced via Err; the in-memory ring keeps working.
	Sink func(Span) error
	// Recent bounds the in-memory ring of recent spans served to the
	// dashboard. Default 64.
	Recent int
}

// Recorder samples, assembles, and fans out spans. All methods are safe
// for concurrent use and safe on a nil receiver (no-ops reporting
// disabled), so call sites need no nil guards.
type Recorder struct {
	service string
	sample  int
	sink    func(Span) error

	mu      sync.Mutex
	ring    []Span //llmfi:guardedby mu — capacity Recent, oldest overwritten
	next    int    //llmfi:guardedby mu — next ring slot
	filled  bool   //llmfi:guardedby mu
	roots   uint64 //llmfi:guardedby mu — roots offered to SampleRoot
	count   int    //llmfi:guardedby mu — spans recorded
	sinkErr error  //llmfi:guardedby mu
}

// NewRecorder builds a Recorder from cfg. A Sample of 0 yields a
// recorder whose Enabled() is false; callers may still hold it.
func NewRecorder(cfg Config) *Recorder {
	n := cfg.Recent
	if n <= 0 {
		n = 64
	}
	s := cfg.Sample
	if s < 0 {
		s = 0
	}
	return &Recorder{
		service: cfg.Service,
		sample:  s,
		sink:    cfg.Sink,
		ring:    make([]Span, n),
	}
}

// Enabled reports whether this recorder can record anything at all.
func (r *Recorder) Enabled() bool { return r != nil && r.sample > 0 }

// SampleRoot consumes one root-sampling slot and reports whether the
// caller should record this root (and its children). Deterministic
// every-Nth counting, not randomness: observability must never consume
// campaign randomness.
func (r *Recorder) SampleRoot() bool {
	if !r.Enabled() {
		return false
	}
	r.mu.Lock()
	n := r.roots
	r.roots++
	r.mu.Unlock()
	return n%uint64(r.sample) == 0
}

// StartTrace mints a fresh root context.
func (r *Recorder) StartTrace() SpanContext {
	return SpanContext{Trace: newTraceID(), Span: newSpanID()}
}

// Child mints a context continuing parent's trace with a new span ID.
// An invalid parent yields a fresh root instead, so callers can chain
// unconditionally.
func (r *Recorder) Child(parent SpanContext) SpanContext {
	if !parent.Valid() {
		return r.StartTrace()
	}
	return SpanContext{Trace: parent.Trace, Span: newSpanID()}
}

// Record stamps schema and service on sp and stores it (ring + sink).
// No-op when the recorder is disabled.
func (r *Recorder) Record(sp Span) {
	if !r.Enabled() {
		return
	}
	sp.Schema = SchemaVersion
	if sp.Service == "" {
		sp.Service = r.service
	}
	r.mu.Lock()
	r.ring[r.next] = sp
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.filled = true
	}
	r.count++
	sink, ok := r.sink, r.sinkErr == nil
	r.mu.Unlock()
	if ok && sink != nil {
		if err := sink(sp); err != nil {
			r.mu.Lock()
			if r.sinkErr == nil {
				r.sinkErr = err
			}
			r.mu.Unlock()
		}
	}
}

// Recent returns up to n recorded spans, newest first. n <= 0 means the
// whole ring.
func (r *Recorder) Recent(n int) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.filled {
		size = len(r.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.ring)
		}
		out = append(out, r.ring[idx])
	}
	return out
}

// Count returns the number of spans recorded so far.
func (r *Recorder) Count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Err returns the first sink error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// NewSpan assembles a span in ctx's trace. parent is the enclosing
// span's ID ("" for a trace root); start/d come from the caller's
// clock-seam measurements.
func NewSpan(ctx SpanContext, parent, name string, start time.Time, d time.Duration, attrs ...Attr) Span {
	return Span{
		Trace:   ctx.Trace,
		ID:      ctx.Span,
		Parent:  parent,
		Name:    name,
		Start:   start.UnixNano(),
		Seconds: d.Seconds(),
		Attrs:   attrs,
	}
}
