package report

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/version"
)

// metricsText renders a snapshot's campaign exposition.
func metricsText(t *testing.T, s core.TelemetrySnapshot) string {
	t.Helper()
	var b strings.Builder
	p := obs.NewMetricsWriter(&b)
	WriteMetricsText(p, s)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// readTraces decodes a propagation-trace JSONL stream.
func readTraces(r io.Reader) ([]trace.Record, error) {
	return obs.ReadJSONL(r, trace.SchemaVersion, func(rec trace.Record) int { return rec.Schema })
}

// promSnapshot is the fixed snapshot behind the golden exposition test.
// HookFires and the first phase's count pass 1e6 on purpose: gauges
// and counters render through the shortest 'g' form (4.096e+06) while
// outcome, worker-trial and histogram counts render as integers, and
// the golden pins both.
func promSnapshot() core.TelemetrySnapshot {
	return core.TelemetrySnapshot{
		ElapsedSeconds:   2.5,
		TotalTrials:      120,
		DoneTrials:       64,
		ResumedTrials:    16,
		TrialsPerSec:     19.2,
		Fired:            40,
		FiredRate:        0.625,
		Masked:           1048576,
		Subtle:           24,
		Distorted:        10,
		HookFires:        4096000,
		TracedTrials:     4,
		DecodeBatchSteps: 32,
		DecodeBatchRows:  224,
		BatchOccupancy:   7,
		AbftChecks:       500,
		AbftFlagged:      12,
		AbftDetected:     10,
		AbftMissed:       2,
		Workers: []core.WorkerSnapshot{
			{Trials: 2000000, BusySeconds: 1.5, Utilization: 0.6},
			{Trials: 24, BusySeconds: 1, Utilization: 0.4},
		},
		PhaseBucketBounds: []float64{1e-06, 3.2e-05, 0.001024},
		Phases: []core.PhaseSnapshot{
			{Phase: "prefill", Count: 3000006, SumSeconds: 0.012, Buckets: []int64{1, 3, 2, 3000000}},
			{Phase: "classify", Count: 2, SumSeconds: 4.5e-05, Buckets: []int64{0, 1, 1, 0}},
		},
	}
}

// TestWriteMetricsTextGolden pins the campaign exposition byte for byte
// against testdata/metrics_golden.txt: Prometheus scrapers are
// whitespace- and structure-sensitive, so the output must not drift.
func TestWriteMetricsTextGolden(t *testing.T) {
	got := metricsText(t, promSnapshot())
	want, err := os.ReadFile(filepath.Join("testdata", "metrics_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Structural invariants: no family is declared twice.
	types := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam := strings.Fields(name)[0]
			if types[fam] {
				t.Errorf("family %s declared twice", fam)
			}
			types[fam] = true
		}
	}
	if len(types) == 0 {
		t.Fatal("no TYPE lines in exposition")
	}
}

// TestWriteMetricsTextEmpty: a zero snapshot (campaign not started) must
// still render core families without worker or histogram sections.
func TestWriteMetricsTextEmpty(t *testing.T) {
	got := metricsText(t, core.TelemetrySnapshot{})
	if !strings.Contains(got, "llmfi_trials_total 0\n") {
		t.Fatal("zero snapshot missing trials gauge")
	}
	if strings.Contains(got, "llmfi_worker_trials") || strings.Contains(got, "llmfi_phase_latency_seconds") {
		t.Fatal("zero snapshot emitted empty optional families")
	}
}

// TestTraceFileRoundTrip writes records through the full OpenTrace /
// JSONLWriter path and reads them back, covering truncate-on-fresh and
// append-on-resume semantics.
func TestTraceFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	mk := func(trial int) trace.Record {
		return trace.Record{
			Schema: trace.SchemaVersion, Trial: trial, Fault: "comp-1bit",
			Layer: "block0.up_proj", Bits: []int{9}, HighestBit: 9,
			StrikePos: 21, Fired: true, Outcome: "Masked",
			Spans: []trace.Span{{Phase: trace.PhaseDecode, Seconds: 0.25, Count: 7}},
		}
	}

	write := func(resuming bool, trials ...int) bool {
		f, appended, err := OpenTrace(path, resuming)
		if err != nil {
			t.Fatal(err)
		}
		tw := obs.NewJSONLWriter[trace.Record](f)
		for _, tr := range trials {
			if err := tw.Write(mk(tr)); err != nil {
				t.Fatal(err)
			}
		}
		if tw.Count() != len(trials) {
			t.Fatalf("writer count %d, want %d", tw.Count(), len(trials))
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		return appended
	}
	read := func() []trace.Record {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		recs, err := readTraces(f)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	if appended := write(false, 0, 1); appended {
		t.Fatal("fresh open reported appending")
	}
	recs := read()
	if len(recs) != 2 || recs[0].Trial != 0 || recs[1].Trial != 1 {
		t.Fatalf("bad round trip: %+v", recs)
	}
	if recs[0].Spans[0].Phase != trace.PhaseDecode || recs[0].Spans[0].Count != 7 {
		t.Fatalf("span did not round-trip: %+v", recs[0].Spans)
	}

	// Resume appends after the existing records.
	if appended := write(true, 2); !appended {
		t.Fatal("resume open did not report appending")
	}
	if recs = read(); len(recs) != 3 || recs[2].Trial != 2 {
		t.Fatalf("append semantics broken: %+v", recs)
	}

	// A fresh campaign truncates.
	if write(false, 5); len(read()) != 1 {
		t.Fatal("fresh open did not truncate")
	}

	// Schema mismatches are refused.
	if err := os.WriteFile(path, []byte(`{"schema":999}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := readTraces(f); err == nil {
		t.Fatal("unknown schema version accepted")
	}
}

// TestServerEndpoints drives the HTTP observability surface through
// httptest: /healthz, /metrics, and /trials with a ring of observed
// events.
func TestServerEndpoints(t *testing.T) {
	tel := core.NewTelemetry()
	srv := NewServer("bench camp", tel)
	for i := 0; i < recentTrials+3; i++ {
		srv.Observe(core.TrialDone{Index: i, Worker: i % 2, Trace: &trace.Record{}})
	}
	srv.Observe(core.Progress{Done: 67, Total: 120})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*httptest.ResponseRecorder, string) {
		req := httptest.NewRequest("GET", path, nil)
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, req)
		return rr, rr.Body.String()
	}

	rr, body := get("/healthz")
	if rr.Code != 200 {
		t.Fatalf("/healthz status %d", rr.Code)
	}
	var hz struct {
		Status   string `json:"status"`
		Label    string `json:"label"`
		Done     int    `json:"done"`
		Total    int    `json:"total"`
		Finished bool   `json:"finished"`
	}
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Label != "bench camp" || hz.Done != 67 || hz.Total != 120 || hz.Finished {
		t.Fatalf("bad /healthz payload %+v", hz)
	}

	rr, body = get("/metrics")
	if rr.Code != 200 {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("bad /metrics content type %q", ct)
	}
	for _, name := range []string{"llmfi_trials_done", "llmfi_fired_rate", "llmfi_hook_fires_total"} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
	// Every llmfi Prometheus surface leads with the build-identity gauge,
	// labelled with the schema of the record stream it exports — here the
	// trace schema.
	if !strings.HasPrefix(body, "# HELP llmfi_build_info") {
		t.Fatal("/metrics does not lead with llmfi_build_info")
	}
	if want := fmt.Sprintf("llmfi_build_info{version=%q,schema=\"%d\"} 1\n", version.Version, trace.SchemaVersion); !strings.Contains(body, want) {
		t.Fatalf("/metrics missing %q", want)
	}

	// The pre-v1 path answers a permanent redirect to the versioned one.
	rr, _ = get("/trials")
	if rr.Code != 301 {
		t.Fatalf("/trials status %d, want 301", rr.Code)
	}
	if loc := rr.Header().Get("Location"); loc != APIVersion+"/trials" {
		t.Fatalf("/trials redirects to %q", loc)
	}

	rr, body = get(APIVersion + "/trials")
	if rr.Code != 200 {
		t.Fatalf("%s/trials status %d", APIVersion, rr.Code)
	}
	var trials []TrialEvent
	if err := json.Unmarshal([]byte(body), &trials); err != nil {
		t.Fatal(err)
	}
	if len(trials) != recentTrials {
		t.Fatalf("trials returned %d events, want ring size %d", len(trials), recentTrials)
	}
	// Newest first: the last observed index leads, and the ring dropped
	// the oldest three.
	if trials[0].Index != recentTrials+2 || trials[len(trials)-1].Index != 3 {
		t.Fatalf("trials order wrong: first %d last %d", trials[0].Index, trials[len(trials)-1].Index)
	}
	if !trials[0].Traced {
		t.Fatal("traced flag lost in trials payload")
	}

	// Wrong method and unknown API paths answer the JSON error envelope.
	post := func(path string) (*httptest.ResponseRecorder, string) {
		req := httptest.NewRequest("POST", path, nil)
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, req)
		return rr, rr.Body.String()
	}
	rr, body = post(APIVersion + "/trials")
	if rr.Code != 405 || !strings.Contains(body, "method_not_allowed") {
		t.Fatalf("POST trials: status %d body %s", rr.Code, body)
	}
	rr, body = get(APIVersion + "/nope")
	if rr.Code != 404 || !strings.Contains(body, "not_found") {
		t.Fatalf("unknown API path: status %d body %s", rr.Code, body)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error envelope content type %q", ct)
	}

	// CampaignDone flips /healthz to finished and surfaces the error.
	srv.Observe(core.CampaignDone{Err: errBoom{}})
	_, body = get("/healthz")
	if !strings.Contains(body, `"finished": true`) || !strings.Contains(body, "boom") {
		t.Fatalf("terminal state not reflected: %s", body)
	}

	// pprof index is mounted.
	if rr, _ := get("/debug/pprof/"); rr.Code != 200 {
		t.Fatalf("/debug/pprof/ status %d", rr.Code)
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }
