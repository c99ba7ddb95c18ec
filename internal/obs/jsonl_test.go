package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

func traceSchema(r trace.Record) int { return r.Schema }

// TestJSONLPartialRead pins the one partial-read rule: a refused or
// malformed record ends the read with an error, and the records before
// it come back with that error.
func TestJSONLPartialRead(t *testing.T) {
	good := fmt.Sprintf(`{"schema":%d,"trace":"t","span":"a","service":"s","name":"n","start_unix_ns":1,"seconds":0.5}`, SchemaVersion)
	for name, bad := range map[string]string{
		"schema":    fmt.Sprintf(`{"schema":%d}`, SchemaVersion+1),
		"unknown":   fmt.Sprintf(`{"schema":%d,"from_the_future":1}`, SchemaVersion),
		"malformed": `{"schema":`,
		"type":      `{"schema":"one"}`,
	} {
		t.Run(name, func(t *testing.T) {
			in := good + "\n" + good + "\n" + bad + "\n" + good + "\n"
			got, err := ReadJSONL(strings.NewReader(in), SchemaVersion, spanSchema)
			if err == nil {
				t.Fatal("bad record accepted")
			}
			if !strings.HasPrefix(err.Error(), "record 2: ") {
				t.Fatalf("error %q does not name record 2", err)
			}
			if len(got) != 2 || got[1].Seconds != 0.5 {
				t.Fatalf("got %d records before the error, want the 2 good ones: %+v", len(got), got)
			}
		})
	}
	got, err := ReadJSONL(strings.NewReader(""), SchemaVersion, spanSchema)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %v, %v", got, err)
	}
}

// FuzzReadJSONL: on any input, for both record schemas, ReadJSONL never
// panics, every record it returns carries the expected schema, and the
// returned records re-encode into a stream that reads back whole.
func FuzzReadJSONL(f *testing.F) {
	var seed bytes.Buffer
	sw := NewJSONLWriter[Span](&seed)
	rec := NewRecorder(Config{Service: "w", Sample: 1, Sink: sw.Write})
	ctx := rec.StartTrace()
	rec.Record(Span{Trace: ctx.Trace, ID: ctx.Span, Name: "root", Seconds: 1, Attrs: []Attr{Str("k", "v"), Int("n", 3)}})
	tw := NewJSONLWriter[trace.Record](&seed)
	tw.Write(trace.Record{Schema: trace.SchemaVersion, Trial: 4, Fault: "comp-1bit", Bits: []int{9},
		Spans: []trace.Span{{Phase: trace.PhaseDecode, Seconds: 0.25, Count: 7}}})
	f.Add(seed.Bytes())
	f.Add([]byte(`{"schema":99}`))
	f.Add([]byte(`{"schema":1,"from_the_future":true}`))
	f.Add([]byte("{\"schema\":1,\"trial\":"))
	f.Add([]byte(`{"schema":1}{"schema":1} [] null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJSONL(t, data, SchemaVersion, spanSchema)
		checkJSONL(t, data, trace.SchemaVersion, traceSchema)
	})
}

func checkJSONL[T any](t *testing.T, data []byte, schema int, schemaOf func(T) int) {
	recs, _ := ReadJSONL(bytes.NewReader(data), schema, schemaOf)
	var buf bytes.Buffer
	w := NewJSONLWriter[T](&buf)
	for i, r := range recs {
		if got := schemaOf(r); got != schema {
			t.Fatalf("record %d has schema %d, want %d", i, got, schema)
		}
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := ReadJSONL(&buf, schema, schemaOf)
	if err != nil || len(again) != len(recs) {
		t.Fatalf("re-encoded %d records read back as %d: %v", len(recs), len(again), err)
	}
}
