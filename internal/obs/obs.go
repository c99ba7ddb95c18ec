// Package obs is the fleet observability plane: lightweight end-to-end
// spans correlated by trace ID across the serving engine, the campaign
// runner, and the coordinator/worker fabric; W3C-style trace-context
// propagation over the existing /api/v1 wire; a coordinator-side
// metrics fan-in that scrapes worker /metrics endpoints and re-exports
// aggregated llmfi_fleet_* series; and a zero-dependency live HTML
// dashboard. It also holds the telemetry substrate every surface
// shares: the one Prometheus exposition writer (MetricsWriter), the one
// latency histogram (Histogram) and the one JSONL record codec
// (JSONLWriter, ReadJSONL).
//
// The plane is observational by construction, the same contract the
// propagation-trace layer (internal/trace) and telemetry registry obey:
// nothing recorded here may reach a trial outcome, a Result, or a
// checkpoint. Span identifiers derive from a process-local generator
// seeded once from crypto/rand — never from campaign randomness — and
// all wall-clock reads funnel through the package clock seam, so the
// determinism analyzer (internal/lint) covers this package with exactly
// one sanctioned timing site. Golden-equivalence tests in internal/core
// and internal/serve prove campaign results and served tokens are
// bit-identical with recording enabled.
//
// Spans export as JSON Lines with their own versioned schema
// (SchemaVersion), a sibling of the propagation-trace schema from
// internal/trace; readers refuse records from a different schema rather
// than misinterpreting them.
package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// SchemaVersion identifies the span record layout of the JSONL export.
// Bump on any incompatible field change so downstream analysis can
// dispatch — same discipline as trace.SchemaVersion.
const SchemaVersion = 1

// Attr is one typed span attribute. Exactly one of Str / Num / Int
// carries the value; the zero fields are omitted from JSON.
type Attr struct {
	Key string  `json:"key"`
	Str string  `json:"str,omitempty"`
	Num float64 `json:"num,omitempty"`
	Int int64   `json:"int,omitempty"`
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, Str: val} }

// Num builds a float attribute.
func Num(key string, val float64) Attr { return Attr{Key: key, Num: val} }

// Int builds an integer attribute.
func Int(key string, val int64) Attr { return Attr{Key: key, Int: val} }

// Span is one timed segment of a request, trial, or lease. Spans with
// the same Trace belong to one end-to-end story — a generate request
// through the serving engine, or a campaign trial from the coordinator's
// lease grant through the worker that executed it.
type Span struct {
	Schema int `json:"schema"`
	// Trace is the 32-hex-digit trace ID shared by every span of one
	// end-to-end story; ID is this span's own 16-hex-digit identity and
	// Parent the span it nests under ("" for a root).
	Trace  string `json:"trace"`
	ID     string `json:"span"`
	Parent string `json:"parent,omitempty"`
	// Service names the process role that recorded the span (serve,
	// campaign, coordinator, worker).
	Service string `json:"service"`
	// Name is the phase or operation (request, queue_wait, decode,
	// lease, trial, ...).
	Name string `json:"name"`
	// Start is the span's wall-clock start in Unix nanoseconds; Seconds
	// its duration. Both are telemetry — they never feed back into any
	// campaign computation.
	Start   int64   `json:"start_unix_ns"`
	Seconds float64 `json:"seconds"`
	// Count carries the number of underlying operations when the span
	// aggregates them (e.g. decode steps), mirroring trace.Span.Count.
	Count int    `json:"count,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// idGen is the process-local span/trace ID generator: a splitmix64
// stream over an atomic counter, offset by a once-per-process
// crypto/rand base so concurrent llmfi processes never collide. It is
// deliberately independent of the campaign's prng streams — consuming
// campaign randomness for observability would shift every downstream
// sample and break bit-identity.
var idGen struct {
	base uint64
	ctr  atomic.Uint64
}

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idGen.base = binary.LittleEndian.Uint64(b[:])
	}
}

// nextID draws one 64-bit identifier.
func nextID() uint64 {
	x := idGen.base + idGen.ctr.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 { // the all-zero ID is invalid in trace context
		x = 1
	}
	return x
}

// newTraceID returns a fresh 32-hex-digit trace ID.
func newTraceID() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], nextID())
	binary.BigEndian.PutUint64(b[8:], nextID())
	return hex.EncodeToString(b[:])
}

// newSpanID returns a fresh 16-hex-digit span ID.
func newSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], nextID())
	return hex.EncodeToString(b[:])
}
