package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestTraceparentRoundTrip: a context formatted as a traceparent header
// parses back to the identical context.
func TestTraceparentRoundTrip(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	rec := NewRecorder(Config{Service: "t", Sample: 1})
	ctx := rec.StartTrace()
	if !ctx.Valid() {
		t.Fatalf("StartTrace returned invalid context %+v", ctx)
	}
	hdr := ctx.Traceparent()
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("own header %q did not parse", hdr)
	}
	if got != ctx {
		t.Fatalf("round trip: got %+v, want %+v", got, ctx)
	}
}

// TestParseTraceparentRejects pins the malformed-header table: every
// entry must be silently rejected (ok=false, zero context) — the HTTP
// layers never 4xx on a bad traceparent.
func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"garbage", "not-a-traceparent"},
		{"short", valid[:40]},
		{"long", valid + "-extra"},
		{"future version", "99" + valid[2:]},
		{"bad dash", strings.Replace(valid, "-", "_", 1)},
		{"non-hex trace", "00-zzf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		{"non-hex span", "00-0af7651916cd43dd8448eb211c80319c-z7ad6b7169203331-01"},
		{"zero trace", "00-00000000000000000000000000000000-b7ad6b7169203331-01"},
		{"zero span", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01"},
	}
	for _, tc := range cases {
		if got, ok := ParseTraceparent(tc.in); ok || got != (SpanContext{}) {
			t.Errorf("%s: ParseTraceparent(%q) = %+v, %v; want zero, false", tc.name, tc.in, got, ok)
		}
	}
	// Case and whitespace are forgiven, per W3C trace context.
	if _, ok := ParseTraceparent("  " + strings.ToUpper(valid) + " "); !ok {
		t.Error("uppercase/padded valid header rejected")
	}
}

// TestSampleRoot pins the deterministic every-Nth stride.
func TestSampleRoot(t *testing.T) {
	rec := NewRecorder(Config{Sample: 3})
	var got []bool
	for i := 0; i < 7; i++ {
		got = append(got, rec.SampleRoot())
	}
	want := []bool{true, false, false, true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stride-3 sampling = %v, want %v", got, want)
		}
	}
	off := NewRecorder(Config{Sample: 0})
	if off.Enabled() || off.SampleRoot() {
		t.Fatal("Sample=0 recorder sampled a root")
	}
}

// TestRecorderRingAndSink: the ring keeps the newest spans (newest
// first), the sink sees every span, and a sink error latches without
// stopping the ring.
func TestRecorderRingAndSink(t *testing.T) {
	var sunk []Span
	sinkErr := errors.New("disk full")
	fail := false
	rec := NewRecorder(Config{Service: "svc", Sample: 1, Recent: 4, Sink: func(sp Span) error {
		if fail {
			return sinkErr
		}
		sunk = append(sunk, sp)
		return nil
	}})
	ctx := rec.StartTrace()
	for i := 0; i < 6; i++ {
		rec.Record(NewSpan(rec.Child(ctx), ctx.Span, "s", time.Unix(0, int64(i)), time.Millisecond, Int("i", int64(i))))
	}
	recent := rec.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(recent))
	}
	for i, sp := range recent {
		if want := int64(5 - i); sp.Attrs[0].Int != want {
			t.Fatalf("Recent[%d] = span %d, want %d (newest first)", i, sp.Attrs[0].Int, want)
		}
		if sp.Schema != SchemaVersion || sp.Service != "svc" {
			t.Fatalf("span missing schema/service stamp: %+v", sp)
		}
	}
	if len(sunk) != 6 || rec.Count() != 6 {
		t.Fatalf("sink saw %d spans, Count()=%d; want 6", len(sunk), rec.Count())
	}
	fail = true
	rec.Record(NewSpan(ctx, "", "root", time.Unix(0, 9), time.Second))
	if rec.Err() != sinkErr {
		t.Fatalf("Err() = %v, want latched sink error", rec.Err())
	}
	if rec.Recent(1)[0].Name != "root" {
		t.Fatal("ring stopped recording after sink error")
	}
}

// spanSchema reads a span's schema for ReadJSONL.
func spanSchema(sp Span) int { return sp.Schema }

// TestSpanWriterRoundTrip: spans written as JSONL read back identical,
// and a schema mismatch is refused rather than misread.
func TestSpanWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewJSONLWriter[Span](&buf)
	rec := NewRecorder(Config{Service: "w", Sample: 1, Sink: sw.Write})
	ctx := rec.StartTrace()
	rec.Record(NewSpan(ctx, "", "root", time.Unix(1, 0), 2*time.Second, Str("k", "v"), Num("f", 0.5)))
	child := rec.Child(ctx)
	rec.Record(NewSpan(child, ctx.Span, "child", time.Unix(2, 0), time.Second, Int("n", 7)))
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Count() != 2 {
		t.Fatalf("writer Count() = %d, want 2", sw.Count())
	}

	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()), SchemaVersion, spanSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d spans, want 2", len(got))
	}
	if got[0].Trace != ctx.Trace || got[1].Trace != ctx.Trace {
		t.Fatal("trace IDs did not survive the round trip")
	}
	if got[1].Parent != ctx.Span || got[1].Attrs[0].Int != 7 {
		t.Fatalf("child span mangled: %+v", got[1])
	}

	// Schema refusal: a record from a different schema version errors.
	tampered := strings.Replace(buf.String(), `"schema":1`, `"schema":99`, 1)
	if _, err := ReadJSONL(strings.NewReader(tampered), SchemaVersion, spanSchema); err == nil {
		t.Fatal("ReadJSONL accepted a foreign schema version")
	} else if !strings.Contains(err.Error(), "schema 99") {
		t.Fatalf("schema refusal error unhelpful: %v", err)
	}

	// Unknown-field refusal: a span record carrying a key this reader
	// doesn't know means a newer writer — refuse, don't drop.
	drifted := strings.Replace(buf.String(), `"schema":1`, `"schema":1,"from_the_future":true`, 1)
	if _, err := ReadJSONL(strings.NewReader(drifted), SchemaVersion, spanSchema); err == nil ||
		!strings.Contains(err.Error(), "from_the_future") {
		t.Fatalf("ReadJSONL did not reject an unknown field: %v", err)
	}
}

// TestChildContinuesTrace: children share the root's trace with fresh
// span IDs; an invalid parent yields a fresh root.
func TestChildContinuesTrace(t *testing.T) {
	rec := NewRecorder(Config{Sample: 1})
	root := rec.StartTrace()
	c1, c2 := rec.Child(root), rec.Child(root)
	if c1.Trace != root.Trace || c2.Trace != root.Trace {
		t.Fatal("children left the root's trace")
	}
	if c1.Span == root.Span || c1.Span == c2.Span {
		t.Fatal("span IDs collided")
	}
	fresh := rec.Child(SpanContext{})
	if !fresh.Valid() || fresh.Trace == root.Trace {
		t.Fatalf("invalid parent should yield a fresh root, got %+v", fresh)
	}
}
