package obs

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// ContentTypeMetrics is the Content-Type every llmfi /metrics endpoint
// serves: Prometheus text exposition format 0.0.4.
const ContentTypeMetrics = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler answers a /metrics scrape with the body write renders.
func MetricsHandler(write func(io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentTypeMetrics)
		// A failed write means the scraper went away; there is no one
		// left to tell.
		_ = write(w)
	}
}

// MetricsWriter renders Prometheus text exposition format 0.0.4. It is
// the only place llmfi formats a family header, a label set or a sample
// value: each /metrics surface keeps its own snapshot struct and lists
// its families in code, but renders every line through here. Labels are
// passed as alternating key, value strings. Output is buffered, and the
// first write error latches: later writes are dropped and Flush returns
// it.
type MetricsWriter struct {
	bw *bufio.Writer
}

// NewMetricsWriter renders onto w; call Flush when done.
func NewMetricsWriter(w io.Writer) *MetricsWriter {
	return &MetricsWriter{bw: bufio.NewWriter(w)}
}

// Flush writes any buffered output and returns the first write error.
func (p *MetricsWriter) Flush() error { return p.bw.Flush() }

// Family writes a family's HELP and TYPE header; typ is gauge, counter,
// histogram or untyped.
func (p *MetricsWriter) Family(name, typ, help string) {
	p.bw.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " " + typ + "\n")
}

// Sample writes one series whose value renders in the shortest
// round-trip form ('g': 4.096e+06, 0.25).
func (p *MetricsWriter) Sample(name string, v float64, labels ...string) {
	p.series(name, labels, fmtVal(v))
}

// Int writes one series whose value renders as a decimal integer.
func (p *MetricsWriter) Int(name string, v int64, labels ...string) {
	p.series(name, labels, strconv.FormatInt(v, 10))
}

// Histogram writes one histogram series: cumulative name_bucket lines
// with le last among the labels, then name_sum and name_count. buckets
// holds per-bucket counts aligned with bounds plus a trailing +Inf
// overflow bucket; sum is in seconds.
func (p *MetricsWriter) Histogram(name string, bounds []float64, buckets []int64, count int64, sum float64, labels ...string) {
	withLE := append(labels[:len(labels):len(labels)], "le", "")
	var cum int64
	for i, n := range buckets {
		cum += n
		le := "+Inf"
		if i < len(bounds) {
			le = fmtVal(bounds[i])
		}
		withLE[len(withLE)-1] = le
		p.series(name+"_bucket", withLE, strconv.FormatInt(cum, 10))
	}
	p.series(name+"_sum", labels, fmtVal(sum))
	p.series(name+"_count", labels, strconv.FormatInt(count, 10))
}

// BuildInfo writes the llmfi_build_info gauge every /metrics surface
// leads with. Its labels pin the build: the release version and the
// schema of the record stream the surface exports (trace, span or wire
// schema).
func (p *MetricsWriter) BuildInfo(version string, schema int) {
	p.Family("llmfi_build_info", "gauge", "Build identity of this llmfi process.")
	p.Int("llmfi_build_info", 1, "version", version, "schema", strconv.Itoa(schema))
}

// series writes `name{k="v",...} value`, escaping every label value.
func (p *MetricsWriter) series(name string, labels []string, value string) {
	p.bw.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			p.bw.WriteByte('{')
		} else {
			p.bw.WriteByte(',')
		}
		p.bw.WriteString(labels[i] + `="`)
		labelEscaper.WriteString(p.bw, labels[i+1])
		p.bw.WriteByte('"')
	}
	if len(labels) > 1 {
		p.bw.WriteByte('}')
	}
	p.bw.WriteString(" " + value + "\n")
}

// labelEscaper applies the exposition format's three label-value
// escapes (backslash, double quote, newline); every other byte,
// including tabs and invalid UTF-8, passes through verbatim and reads
// back unchanged through ParseMetricsText.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// fmtVal renders a sample value the way Prometheus clients do: shortest
// round-trip representation, integers without a decimal point.
func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
