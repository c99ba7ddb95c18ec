package report

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
)

// WriteMetricsText renders a telemetry snapshot in the Prometheus text
// exposition format (version 0.0.4): campaign gauges, outcome-class and
// ABFT counters, per-worker series, and the per-phase latency
// histograms. Output is deterministic for a given snapshot — families in
// a fixed order, label values in input order — so it can be golden
// tested and diffed across scrapes.
func WriteMetricsText(p *obs.MetricsWriter, s core.TelemetrySnapshot) {
	gauge := func(name, help string, v float64) {
		p.Family(name, "gauge", help)
		p.Sample(name, v)
	}
	counter := func(name, help string, v float64) {
		p.Family(name, "counter", help)
		p.Sample(name, v)
	}

	gauge("llmfi_trials_total", "Trials configured for the campaign.", float64(s.TotalTrials))
	gauge("llmfi_trials_done", "Completed trials, including any restored from a resume checkpoint.", float64(s.DoneTrials))
	gauge("llmfi_trials_resumed", "Trials restored from a resume checkpoint (counted in llmfi_trials_done).", float64(s.ResumedTrials))
	gauge("llmfi_trials_fired", "Trials whose fault actually struck.", float64(s.Fired))
	gauge("llmfi_fired_rate", "Fraction of completed trials whose fault struck.", s.FiredRate)
	gauge("llmfi_trials_per_second", "Throughput of this run (resumed trials excluded).", s.TrialsPerSec)
	gauge("llmfi_elapsed_seconds", "Wall time since the campaign (or resumed run) started.", s.ElapsedSeconds)

	p.Family("llmfi_outcome_trials", "gauge", "Completed trials by outcome class.")
	p.Int("llmfi_outcome_trials", int64(s.Masked), "class", "masked")
	p.Int("llmfi_outcome_trials", int64(s.Subtle), "class", "sdc_subtle")
	p.Int("llmfi_outcome_trials", int64(s.Distorted), "class", "sdc_distorted")

	counter("llmfi_hook_fires_total", "Forward-hook invocations of the mitigation (ExtraHook) slot.", float64(s.HookFires))
	counter("llmfi_traced_trials_total", "Trials that produced a propagation-trace record.", float64(s.TracedTrials))

	counter("llmfi_decode_batch_steps_total", "Stacked decode steps of the continuous-batching scheduler.", float64(s.DecodeBatchSteps))
	counter("llmfi_decode_batch_rows_total", "Trial rows carried by stacked decode steps.", float64(s.DecodeBatchRows))
	gauge("llmfi_decode_batch_occupancy", "Mean in-flight trials per stacked decode step.", s.BatchOccupancy)

	counter("llmfi_abft_checks_total", "ABFT checksum evaluations.", float64(s.AbftChecks))
	counter("llmfi_abft_flagged_total", "ABFT checksum violations.", float64(s.AbftFlagged))
	counter("llmfi_abft_detected_total", "Fired trials flagged at the injection site.", float64(s.AbftDetected))
	counter("llmfi_abft_missed_total", "Fired trials the checker did not flag at the site.", float64(s.AbftMissed))
	counter("llmfi_abft_false_positives_total", "Violations with no fault active.", float64(s.AbftFalsePositives))
	counter("llmfi_abft_cascaded_total", "Downstream violations of a live fault.", float64(s.AbftCascaded))
	counter("llmfi_abft_corrected_total", "Flagged rows repaired by recomputation.", float64(s.AbftCorrected))
	counter("llmfi_abft_skipped_total", "Flagged rows zeroed after failed recomputation.", float64(s.AbftSkipped))

	if len(s.Workers) > 0 {
		p.Family("llmfi_worker_trials", "gauge", "Trials completed per pool worker.")
		for i, ws := range s.Workers {
			p.Int("llmfi_worker_trials", int64(ws.Trials), "worker", strconv.Itoa(i))
		}
		p.Family("llmfi_worker_busy_seconds", "gauge", "Time each worker spent inside trials.")
		for i, ws := range s.Workers {
			p.Sample("llmfi_worker_busy_seconds", ws.BusySeconds, "worker", strconv.Itoa(i))
		}
		p.Family("llmfi_worker_utilization", "gauge", "Worker busy time over campaign wall time.")
		for i, ws := range s.Workers {
			p.Sample("llmfi_worker_utilization", ws.Utilization, "worker", strconv.Itoa(i))
		}
	}

	if len(s.Phases) > 0 {
		p.Family("llmfi_phase_latency_seconds", "histogram", "Per-trial latency by campaign phase.")
		for _, ph := range s.Phases {
			p.Histogram("llmfi_phase_latency_seconds", s.PhaseBucketBounds, ph.Buckets, ph.Count, ph.SumSeconds, "phase", ph.Phase)
		}
	}
}
