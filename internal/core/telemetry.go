package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/outcome"
	"repro/internal/trace"
)

// nPhaseBuckets is the finite bucket count of the per-phase latency
// histograms (obs.Histogram): 1µs doubling up to ~2s — wide enough to
// straddle everything from a prefix-fork (microseconds) to a full
// long-prompt prefill.
const nPhaseBuckets = 22

func init() {
	if n := len(new(Telemetry).phases); n != len(trace.Phases) {
		panic("core: phase histogram count out of sync with trace.Phases")
	}
}

// Telemetry is a lightweight per-campaign metrics registry: the Runner
// feeds it as trials complete, and Snapshot renders the current state
// for progress lines and the JSON dump (report.WriteTelemetryJSON).
// All methods are safe for concurrent use.
type Telemetry struct {
	// hookFires counts forward-hook invocations of the campaign's
	// ExtraHook (mitigation) slot — atomic because hooks fire on every
	// layer of every token across all workers.
	hookFires atomic.Int64
	// traced counts trials that produced a propagation-trace Record.
	traced atomic.Int64
	// batchSteps and batchRows count stacked decode steps and the trial
	// rows they carried (continuous-batching campaigns only); their ratio
	// is the mean batch occupancy. Atomic: workers observe each step.
	batchSteps atomic.Int64
	batchRows  atomic.Int64
	// phases holds the per-phase latency histograms, indexed by
	// trace.PhaseIndex; lock-free because workers observe spans directly.
	phases [6]*obs.Histogram

	mu      sync.Mutex
	start   time.Time
	total   int
	done    int
	fired   int
	resumed int
	tally   outcome.Tally
	workers []workerStat
	abft    abftStat
}

// abftStat accumulates the campaign's detection-layer accounting.
// detected/missed classify fired trials by whether the checker flagged
// the injection site; the rest sum the per-trial Detection counters.
type abftStat struct {
	checks, flagged          int
	detected, missed         int
	falsePositives, cascaded int
	corrected, skipped       int
}

type workerStat struct {
	trials int
	busy   time.Duration
}

// NewTelemetry returns an empty registry. The Runner creates one
// automatically; supply a shared instance with WithTelemetry to read it
// after (or during) a run.
func NewTelemetry() *Telemetry {
	t := &Telemetry{}
	for i := range t.phases {
		t.phases[i] = obs.NewHistogram(nPhaseBuckets)
	}
	return t
}

// begin resets the registry for a campaign of total trials over the
// given worker-pool size and starts the throughput clock.
func (t *Telemetry) begin(total, workers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.start = now()
	t.total = total
	t.done = 0
	t.fired = 0
	t.resumed = 0
	t.tally = outcome.Tally{}
	t.workers = make([]workerStat, workers)
	t.abft = abftStat{}
	t.hookFires.Store(0)
	t.traced.Store(0)
	t.batchSteps.Store(0)
	t.batchRows.Store(0)
	for _, h := range t.phases {
		h.Reset()
	}
}

// restore folds trials recovered from a resume checkpoint into the
// cumulative counters, so post-resume tallies and fired rates describe
// the whole campaign rather than restarting from zero. Restored trials
// are tracked separately (resumed) and excluded from the throughput
// rate — they were not executed by this run.
func (t *Telemetry) restore(trials []Trial) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range trials {
		t.accountLocked(tr)
	}
	t.resumed += len(trials)
}

// record accounts one completed trial to the given worker.
func (t *Telemetry) record(worker int, tr Trial, busy time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.accountLocked(tr)
	if worker >= 0 && worker < len(t.workers) {
		t.workers[worker].trials++
		t.workers[worker].busy += busy
	}
}

// accountLocked folds one trial into the outcome and detection counters.
// Callers hold t.mu.
func (t *Telemetry) accountLocked(tr Trial) {
	t.done++
	if tr.Fired {
		t.fired++
	}
	t.tally.Add(tr.Outcome)
	if d := tr.Detection; d != nil {
		t.abft.checks += d.Checks
		t.abft.flagged += d.Flagged
		if tr.Fired {
			if d.AtSite {
				t.abft.detected++
			} else {
				t.abft.missed++
			}
		}
		t.abft.falsePositives += d.FalsePositives
		t.abft.cascaded += d.Cascaded
		t.abft.corrected += d.Corrected
		t.abft.skipped += d.Skipped
	}
}

// hookFired counts one ExtraHook invocation.
func (t *Telemetry) hookFired() { t.hookFires.Add(1) }

// tracedTrial counts one trial that produced a propagation trace.
func (t *Telemetry) tracedTrial() { t.traced.Add(1) }

// observeBatch counts one stacked decode step carrying rows trials.
func (t *Telemetry) observeBatch(rows int) {
	t.batchSteps.Add(1)
	t.batchRows.Add(int64(rows))
}

// observePhase adds one latency observation to a phase histogram.
// Lock-free: workers call it directly as trials complete.
func (t *Telemetry) observePhase(p trace.Phase, d time.Duration) {
	if i := trace.PhaseIndex(p); i >= 0 && i < len(t.phases) {
		t.phases[i].Observe(d)
	}
}

// observeSpans folds one trial's phase timings into the histograms.
// decode_token is one per-trial mean observation (decode time over
// decode steps); the check/mitigate phases are observed only when the
// trial actually ran a checker, so their counts stay comparable to the
// trial count of ABFT campaigns.
func (t *Telemetry) observeSpans(sp *spanTimes) {
	t.observePhase(trace.PhasePrefill, sp.prefill)
	t.observePhase(trace.PhaseDecode, sp.decode)
	if sp.steps > 0 {
		t.observePhase(trace.PhaseDecodeToken, sp.decode/time.Duration(sp.steps))
	}
	if sp.abftOn {
		t.observePhase(trace.PhaseABFTCheck, sp.abft)
		t.observePhase(trace.PhaseMitigate, sp.mitigate)
	}
	t.observePhase(trace.PhaseClassify, sp.classify)
}

// WorkerSnapshot is one worker's share of the campaign.
type WorkerSnapshot struct {
	// Trials the worker completed.
	Trials int `json:"trials"`
	// BusySeconds the worker spent inside trials.
	BusySeconds float64 `json:"busy_seconds"`
	// Utilization is busy time over the campaign's wall time so far.
	Utilization float64 `json:"utilization"`
}

// PhaseSnapshot is one phase's latency histogram: observation count, sum
// of observed seconds, and per-bucket counts aligned with
// TelemetrySnapshot.PhaseBucketBounds (one extra overflow bucket at the
// end — the Prometheus +Inf bucket).
type PhaseSnapshot struct {
	Phase      string  `json:"phase"`
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	Buckets    []int64 `json:"buckets"`
}

// TelemetrySnapshot is a point-in-time rendering of the registry.
// DoneTrials, Fired and the outcome tallies are cumulative for the
// campaign (trials restored from a resume checkpoint included;
// ResumedTrials says how many), while TrialsPerSec is the post-resume
// session rate — executed trials over this run's wall time.
type TelemetrySnapshot struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	TotalTrials    int     `json:"total_trials"`
	DoneTrials     int     `json:"done_trials"`
	ResumedTrials  int     `json:"resumed_trials,omitempty"`
	TrialsPerSec   float64 `json:"trials_per_sec"`
	Fired          int     `json:"fired"`
	FiredRate      float64 `json:"fired_rate"`
	Masked         int     `json:"masked"`
	Subtle         int     `json:"sdc_subtle"`
	Distorted      int     `json:"sdc_distorted"`
	HookFires      int64   `json:"hook_fires"`
	TracedTrials   int64   `json:"traced_trials,omitempty"`
	// Continuous-batching decode occupancy (all zero without
	// Campaign.BatchDecode): stacked decode steps, the trial rows they
	// carried, and their ratio — the mean in-flight batch size.
	DecodeBatchSteps int64   `json:"decode_batch_steps,omitempty"`
	DecodeBatchRows  int64   `json:"decode_batch_rows,omitempty"`
	BatchOccupancy   float64 `json:"batch_occupancy,omitempty"`
	// ABFT detection-layer counters (all zero without Campaign.ABFT):
	// checks/violations plus fired trials split into detected (flagged at
	// the injection site) and missed, noise false positives, cascaded
	// downstream flags, and corrective actions taken.
	AbftChecks         int              `json:"abft_checks,omitempty"`
	AbftFlagged        int              `json:"abft_flagged,omitempty"`
	AbftDetected       int              `json:"abft_detected,omitempty"`
	AbftMissed         int              `json:"abft_missed,omitempty"`
	AbftFalsePositives int              `json:"abft_false_positives,omitempty"`
	AbftCascaded       int              `json:"abft_cascaded,omitempty"`
	AbftCorrected      int              `json:"abft_corrected,omitempty"`
	AbftSkipped        int              `json:"abft_skipped,omitempty"`
	Workers            []WorkerSnapshot `json:"workers"`
	// PhaseBucketBounds are the inclusive upper bounds (seconds) shared
	// by every phase histogram; Phases holds the histograms for phases
	// with at least one observation, in trace.Phases order.
	PhaseBucketBounds []float64       `json:"phase_bucket_bounds,omitempty"`
	Phases            []PhaseSnapshot `json:"phases,omitempty"`
}

// Snapshot renders the current state.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	elapsed := time.Duration(0)
	if !t.start.IsZero() {
		elapsed = since(t.start)
	}
	s := TelemetrySnapshot{
		ElapsedSeconds: elapsed.Seconds(),
		TotalTrials:    t.total,
		DoneTrials:     t.done,
		ResumedTrials:  t.resumed,
		Fired:          t.fired,
		Masked:         t.tally.Masked,
		Subtle:         t.tally.Subtle,
		Distorted:      t.tally.Distorted,
		HookFires:      t.hookFires.Load(),
		TracedTrials:   t.traced.Load(),

		AbftChecks:         t.abft.checks,
		AbftFlagged:        t.abft.flagged,
		AbftDetected:       t.abft.detected,
		AbftMissed:         t.abft.missed,
		AbftFalsePositives: t.abft.falsePositives,
		AbftCascaded:       t.abft.cascaded,
		AbftCorrected:      t.abft.corrected,
		AbftSkipped:        t.abft.skipped,
	}
	s.DecodeBatchSteps = t.batchSteps.Load()
	s.DecodeBatchRows = t.batchRows.Load()
	if s.DecodeBatchSteps > 0 {
		s.BatchOccupancy = float64(s.DecodeBatchRows) / float64(s.DecodeBatchSteps)
	}
	if executed := t.done - t.resumed; executed > 0 && elapsed > 0 {
		s.TrialsPerSec = float64(executed) / elapsed.Seconds()
	}
	if t.done > 0 {
		s.FiredRate = float64(t.fired) / float64(t.done)
	}
	for _, w := range t.workers {
		ws := WorkerSnapshot{Trials: w.trials, BusySeconds: w.busy.Seconds()}
		if elapsed > 0 {
			ws.Utilization = w.busy.Seconds() / elapsed.Seconds()
		}
		s.Workers = append(s.Workers, ws)
	}
	for i, h := range t.phases {
		hs := h.Snapshot()
		if hs.Count == 0 {
			continue
		}
		s.Phases = append(s.Phases, PhaseSnapshot{
			Phase:      string(trace.Phases[i]),
			Count:      hs.Count,
			SumSeconds: hs.Sum,
			Buckets:    hs.Buckets,
		})
	}
	if len(s.Phases) > 0 {
		s.PhaseBucketBounds = append([]float64(nil), t.phases[0].Bounds()...)
	}
	return s
}

// progress renders the registry as a Progress event with the overall
// done count (which may exceed this run's executed-trial count after a
// resume).
func (t *Telemetry) progress(done, total int) Progress {
	s := t.Snapshot()
	return Progress{
		Done:         done,
		Total:        total,
		TrialsPerSec: s.TrialsPerSec,
		Fired:        s.Fired,
		Tally:        outcome.Tally{Masked: s.Masked, Subtle: s.Subtle, Distorted: s.Distorted},
		Elapsed:      time.Duration(s.ElapsedSeconds * float64(time.Second)),
	}
}
