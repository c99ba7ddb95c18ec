package report

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestStrictUnmarshal pins the client-side decode discipline: known
// fields round-trip, unknown fields — schema growth on the far side —
// fail loudly instead of being silently dropped.
func TestStrictUnmarshal(t *testing.T) {
	var v struct {
		Worker string `json:"worker_name"`
	}
	if err := StrictUnmarshal([]byte(`{"worker_name":"w0"}`), &v); err != nil {
		t.Fatalf("known fields rejected: %v", err)
	}
	if v.Worker != "w0" {
		t.Fatalf("Worker = %q, want w0", v.Worker)
	}
	err := StrictUnmarshal([]byte(`{"worker_name":"w0","from_the_future":1}`), &v)
	if err == nil || !strings.Contains(err.Error(), "from_the_future") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

// TestReadTracesRejectsUnknownField: a trace record carrying a key this
// reader doesn't know means the file was written by a newer schema —
// refuse it rather than drop the field.
func TestReadTracesRejectsUnknownField(t *testing.T) {
	line := fmt.Sprintf(`{"schema":%d,"from_the_future":true}`+"\n", trace.SchemaVersion)
	if _, err := readTraces(strings.NewReader(line)); err == nil ||
		!strings.Contains(err.Error(), "from_the_future") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}
