package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed interval at a layer boundary. Spans of one trial or
// request share Trace; Parent names the span that caused this one.
// Start and End are nanoseconds since the tracer was created.
type span struct {
	Trace  string `json:"trace"`
	ID     string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh 16-hex-digit span ID (a splitmix64 step over a
// counter, so IDs are well spread and never zero); "" on a nil tracer.
func (t *tracer) newID() string {
	if t == nil {
		return ""
	}
	x := t.next.Add(1) * 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return fmt.Sprintf("%016x", x)
}

// newTrace returns a fresh 32-hex-digit trace ID; "" on a nil tracer.
func (t *tracer) newTrace() string { return t.newID() + t.newID() }

// add records a span and returns its ID ("" on a nil tracer).
func (t *tracer) add(trace, parent, name string, start, end time.Time) string {
	id := t.newID()
	t.record(id, trace, parent, name, start, end)
	return id
}

// record records a span whose ID was minted earlier, so that its
// children could name it as their parent before it ended.
func (t *tracer) record(id, trace, parent, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.put(span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// addObs records a span the program's own recorder produced.
func (t *tracer) addObs(sp obs.Span) {
	if t == nil {
		return
	}
	start := sp.Start - t.t0.UnixNano()
	t.put(span{Trace: sp.Trace, ID: sp.ID, Parent: sp.Parent, Name: sp.Name,
		Start: start, End: start + int64(sp.Seconds*1e9)})
}

func (t *tracer) put(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) []layerTime {
	children := make(map[string][][2]int64)
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	by := make(map[string]*layerTime)
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalMS += float64(d) / 1e6
		lt.SelfMS += float64(d-covered(s.Start, s.End, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// writeTrace writes every span as one JSON line, followed by the
// per-name self-time summary, to path.
func writeTrace(path string, spans []span, summary []layerTime) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"self_times": summary}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
