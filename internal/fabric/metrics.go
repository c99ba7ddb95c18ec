package fabric

import (
	"encoding/json"
	"net/http"
	"sort"

	"repro/internal/obs"
)

// WriteFleetMetricsText renders the fleet status onto p — the
// multi-node counterpart of report.WriteMetricsText. Output is
// deterministic for a given status (fixed family order, workers sorted
// by name), so it can be golden tested and diffed across scrapes.
func WriteFleetMetricsText(p *obs.MetricsWriter, s StatusResponse) {
	gauge := func(name, help string, v float64) {
		p.Family(name, "gauge", help)
		p.Sample(name, v)
	}
	counter := func(name, help string, v float64) {
		p.Family(name, "counter", help)
		p.Sample(name, v)
	}

	gauge("llmfi_fabric_trials_total", "Trials configured for the distributed campaign.", float64(s.Trials))
	gauge("llmfi_fabric_trials_done", "Trials merged by the coordinator.", float64(s.Done))
	gauge("llmfi_fabric_trials_outstanding", "Leased, not-yet-submitted trial indices.", float64(s.OutstandingTrials))
	gauge("llmfi_fabric_leases_outstanding", "Live leases across the fleet.", float64(s.OutstandingLeases))
	counter("llmfi_fabric_leases_reissued_total", "Leases expired past their TTL and returned to the pool.", float64(s.ReissuedLeases))
	counter("llmfi_fabric_duplicate_trials_total", "Submitted trials discarded by index-keyed dedup.", float64(s.DuplicateTrials))
	counter("llmfi_fabric_stitched_results_total", "Result submissions carrying the lease's trace context (coordinator/worker trace stitch).", float64(s.StitchedResults))
	gauge("llmfi_fabric_workers", "Workers that have joined the fleet.", float64(len(s.Workers)))
	gauge("llmfi_fabric_trials_per_second", "Fleet-wide merge throughput (restored trials excluded).", s.TrialsPerSec)
	gauge("llmfi_fabric_elapsed_seconds", "Wall time since the coordinator started.", s.ElapsedSec)
	finished := 0.0
	if s.Finished {
		finished = 1
	}
	gauge("llmfi_fabric_finished", "Whether every trial is merged (0/1).", finished)

	if len(s.Workers) > 0 {
		p.Family("llmfi_fabric_worker_trials", "gauge", "Trials accepted per worker.")
		for _, ws := range s.Workers {
			p.Int("llmfi_fabric_worker_trials", int64(ws.Trials), "worker", ws.Worker)
		}
		p.Family("llmfi_fabric_worker_trials_per_second", "gauge", "Accepted-trial rate per worker since it joined.")
		for _, ws := range s.Workers {
			p.Sample("llmfi_fabric_worker_trials_per_second", ws.TrialsPerSec, "worker", ws.Worker)
		}
		p.Family("llmfi_fabric_worker_outstanding_trials", "gauge", "Leased, unsubmitted indices per worker.")
		for _, ws := range s.Workers {
			p.Int("llmfi_fabric_worker_outstanding_trials", int64(ws.OutstandingTrials), "worker", ws.Worker)
		}
		p.Family("llmfi_fabric_worker_last_seen_seconds", "gauge", "Seconds since each worker's last request.")
		for _, ws := range s.Workers {
			p.Sample("llmfi_fabric_worker_last_seen_seconds", ws.LastSeenSec, "worker", ws.Worker)
		}
	}
}

// writeJSON writes an indented JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// sortStrings orders worker names deterministically.
func sortStrings(s []string) { sort.Strings(s) }
