package obs

import (
	"errors"
	"strings"
	"testing"
)

// TestWriteBuildInfoText pins the exact shape of the build-identity
// gauge every /metrics surface emits first.
func TestWriteBuildInfoText(t *testing.T) {
	var b strings.Builder
	p := NewMetricsWriter(&b)
	p.BuildInfo("1.2.3", 7)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "# HELP llmfi_build_info Build identity of this llmfi process.\n" +
		"# TYPE llmfi_build_info gauge\n" +
		"llmfi_build_info{version=\"1.2.3\",schema=\"7\"} 1\n"
	if b.String() != want {
		t.Fatalf("BuildInfo:\n got %q\nwant %q", b.String(), want)
	}
}

// TestMetricsWriterLabelRoundTrip: label values are escaped exactly as
// ParseMetricsText unescapes them, so any byte string — tabs, quotes,
// backslashes, newlines, invalid UTF-8 — reads back unchanged.
func TestMetricsWriterLabelRoundTrip(t *testing.T) {
	vals := []string{"w\t1", "w\"1\\", "w\n1", "w\xff1", "", `\n`, "a,b=\"c\"}"}
	var b strings.Builder
	p := NewMetricsWriter(&b)
	p.Family("llmfi_x", "gauge", "x")
	for _, v := range vals {
		p.Int("llmfi_x", 1, "worker", v, "k", "v")
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMetricsText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if len(got) != len(vals) {
		t.Fatalf("parsed %d samples, want %d:\n%s", len(got), len(vals), b.String())
	}
	for i, v := range vals {
		if len(got[i].Labels) != 2 || got[i].Labels[0].Val != v || got[i].Labels[1] != (Label{Key: "k", Val: "v"}) {
			t.Errorf("sample %d labels %q, want worker=%q k=v", i, got[i].Labels, v)
		}
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

// TestMetricsWriterLatchesError: the first write error stops output and
// surfaces from Flush.
func TestMetricsWriterLatchesError(t *testing.T) {
	fw := &failWriter{}
	p := NewMetricsWriter(fw)
	for i := 0; i < 10000; i++ {
		p.Int("llmfi_x", int64(i))
	}
	if err := p.Flush(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Flush() = %v, want the latched write error", err)
	}
	if fw.n != 1 {
		t.Fatalf("underlying writer called %d times after its first error, want 1", fw.n)
	}
}
