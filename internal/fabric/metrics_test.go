package fabric

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/version"
)

// requireTextGolden compares got byte for byte with testdata/name.
func requireTextGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// fleetText renders a status's fleet exposition.
func fleetText(t *testing.T, s StatusResponse) string {
	t.Helper()
	var b strings.Builder
	p := obs.NewMetricsWriter(&b)
	WriteFleetMetricsText(p, s)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestFleetMetricsGolden pins the coordinator's fleet exposition byte
// for byte. Counts past 1e6 pin both renderings: fleet gauges go
// through the shortest 'g' form (4.096e+06), per-worker trial counts
// through integers.
func TestFleetMetricsGolden(t *testing.T) {
	s := StatusResponse{
		Schema: SchemaVersion, Trials: 4096000, Done: 3000001,
		OutstandingTrials: 128, OutstandingLeases: 2,
		ReissuedLeases: 3, DuplicateTrials: 1, StitchedResults: 1048576,
		ElapsedSec: 812.25, TrialsPerSec: 3693.5, Finished: false,
		Workers: []WorkerStatus{
			{Worker: "w1", Trials: 3000000, TrialsPerSec: 3690.25, OutstandingTrials: 64, OutstandingLeases: 1, LastSeenSec: 0.125},
			{Worker: "w2", Trials: 1, TrialsPerSec: 0.5, OutstandingTrials: 64, OutstandingLeases: 1, LastSeenSec: 2},
		},
	}
	requireTextGolden(t, "fleet_metrics_golden.txt", fleetText(t, s))
}

// TestWorkerMetricsGolden pins a worker's self /metrics body byte for
// byte, build-info gauge first. The build version is masked so a
// release bump does not churn the fixture.
func TestWorkerMetricsGolden(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Campaign: testCampaign(t), Coordinator: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	w.selfLeases.Store(7)
	w.selfTrials.Store(4096000)
	w.selfSubmits.Store(512)
	w.selfDuplicates.Store(3)
	rr := httptest.NewRecorder()
	w.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	body := strings.ReplaceAll(rr.Body.String(), `version="`+version.Version+`"`, `version="VERSION"`)
	requireTextGolden(t, "worker_metrics_golden.txt", body)
}

// TestWorkerNameLabelsRoundTrip: worker names arrive unvalidated in
// JoinRequest.Worker, so every per-worker series on the coordinator's
// /metrics must escape them as Prometheus label values. Each worker
// label parsed back from a scrape must equal the name the join
// confirmed — across the fabric families, the fan-in liveness families
// and the re-exported worker series. (JSON decoding turns invalid UTF-8
// into U+FFFD, so "w\xff1" joins as "w�1"; the raw-byte case is
// covered at the writer in internal/obs.)
func TestWorkerNameLabelsRoundTrip(t *testing.T) {
	co, err := NewCoordinator(CoordinatorConfig{Campaign: testCampaign(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "llmfi_worker_self_trials_total 3\n")
	}))
	defer stub.Close()

	joined := map[string]bool{}
	for _, name := range []string{"w\t1", "w\"1\\", "w\n1", "w\xff1"} {
		var jr JoinResponse
		if code := postJSON(t, ts.URL+PathJoin, JoinRequest{
			Schema: SchemaVersion, Version: version.Version,
			Fingerprint: co.cfg.Campaign.Fingerprint(),
			Worker:      name, HTTPAddr: stub.URL,
		}, &jr); code != http.StatusOK {
			t.Fatalf("join %q: status %d", name, code)
		}
		joined[jr.Worker] = true
	}
	co.FanIn().ScrapeOnce(context.Background())

	samples, err := obs.ParseMetricsText(strings.NewReader(httpGet(t, ts.URL+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]map[string]bool{}
	for _, smp := range samples {
		for _, l := range smp.Labels {
			if l.Key != "worker" {
				continue
			}
			if !joined[l.Val] {
				t.Errorf("%s: worker label %q is not a joined name", smp.Name, l.Val)
			}
			if seen[smp.Name] == nil {
				seen[smp.Name] = map[string]bool{}
			}
			seen[smp.Name][l.Val] = true
		}
	}
	for _, fam := range []string{
		"llmfi_fabric_worker_trials", "llmfi_fabric_worker_trials_per_second",
		"llmfi_fabric_worker_outstanding_trials", "llmfi_fabric_worker_last_seen_seconds",
		"llmfi_fleet_worker_up", "llmfi_fleet_worker_scrapes_total",
		"llmfi_fleet_worker_scrape_errors_total", "llmfi_fleet_worker_self_trials_total",
	} {
		if len(seen[fam]) != len(joined) {
			t.Errorf("%s carries %d distinct worker labels, want %d", fam, len(seen[fam]), len(joined))
		}
	}
}
