package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/prng"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// modelSeed fixes the profile model's weights and datasetSeed the
// prompts, as a fixed evaluation set: --seed varies the fault sites, the
// order trials draw instances in and, for serve, the arrivals. Each run
// then measures the same work, drawn afresh.
const (
	modelSeed   = 8
	datasetSeed = 1
)

// replaySample is how many operations the correctness gate replays.
const replaySample = 12

// campaignSpec is one campaign workload.
type campaignSpec struct {
	suite func() (*tasks.Suite, error)
	fault faults.Model
	opts  []core.Option
	// rate is the workload's throughput on the reference machine, in
	// trials/s. It sizes the rounds: a run executes successive campaigns
	// ("rounds") of a fixed trial count, each with its own campaign seed,
	// until its time is up.
	rate float64
	// limit is the per-trial service-time limit slo_attain counts
	// against, fixed once on the reference machine (README.md).
	limit time.Duration
}

// decodeComp: generative self-referential suite, 8 instances with
// 120-token prompts and 12 new tokens, 2-bit computational faults,
// continuous-batching decode of width 16, no ABFT.
var decodeComp = campaignSpec{
	suite: func() (*tasks.Suite, error) {
		return tasks.NewSelfRefSuite("decode", datasetSeed, 8, 119, 12, []metrics.Kind{metrics.KindBLEU}), nil
	},
	fault: faults.Comp2Bit,
	opts:  []core.Option{core.WithDecodeBatch(16)},
	rate:  450,
	limit: 20 * time.Millisecond,
}

// scoreMem: multiple-choice suite mmlu, 8 instances, 2-bit memory
// faults, ABFT on every layer with the detect policy.
var scoreMem = campaignSpec{
	suite: func() (*tasks.Suite, error) { return tasks.NewMCSuite("mmlu", datasetSeed, 8) },
	fault: faults.Mem2Bit,
	opts: []core.Option{core.WithABFT(core.ABFTConfig{
		Policy: mitigate.PolicyDetect, AllLayers: true,
	})},
	rate:  70,
	limit: 100 * time.Millisecond,
}

// roundsPerWindow is how many rounds a window of the reference machine's
// speed holds. Throughput and latency are medians over the rounds, so a
// burst of load from elsewhere on the machine that spans a round or two
// does not move them.
const roundsPerWindow = 8

// roundTrials sizes the rounds of a window of seconds. The count depends
// only on seconds, so a seed always gives the same rounds.
func roundTrials(rate, seconds float64) int {
	return max(32, int(rate*seconds/roundsPerWindow))
}

// profileConfig is the QwenS profile architecture over the general
// vocabulary, in BF16.
func profileConfig() model.Config {
	return model.StandardConfig("QwenS", tasks.GeneralVocab().Size(), numerics.BF16)
}

// profileModel builds the profile model. No checkpoint is loaded.
func profileModel() (*model.Model, error) {
	return model.Build(model.Spec{Config: profileConfig(), Family: model.QwenS, Seed: modelSeed})
}

// roundSeed derives round r's campaign seed from the workload seed.
func roundSeed(seed uint64, r int) uint64 {
	return prng.New(seed).Split(uint64(r)).Uint64()
}

type roundResult struct {
	seed uint64
	res  *core.Result
}

type campaignBench struct {
	spec    campaignSpec
	seed    uint64
	c       core.Campaign
	base    *core.Baseline
	baseDur time.Duration
	rounds  []roundResult
	svc     []time.Duration // per-trial service times of the last window

	// Accumulated over the traced window's rounds.
	phases               map[trace.Phase]float64 // seconds per phase
	decodeTokens         int                     // decode steps
	busy, capacity       float64                 // Σ worker busy s; Σ workers × elapsed s
	batchRows, batchStep int64
	abftChecks, abftFP   int
	detected, missed     int
	fired                int
	traced               int // trials in the traced window
}

func newCampaignBench(spec campaignSpec, seed uint64) (*campaignBench, error) {
	m, err := profileModel()
	if err != nil {
		return nil, err
	}
	suite, err := spec.suite()
	if err != nil {
		return nil, err
	}
	c := core.New(m, suite, spec.fault, roundTrials(spec.rate, 0), roundSeed(seed, 0), spec.opts...)
	t0 := time.Now()
	base := c.EvalBaseline()
	return &campaignBench{spec: spec, seed: seed, c: c, base: base, baseDur: time.Since(t0)}, nil
}

func (b *campaignBench) close() {}

// measure runs whole rounds until seconds have passed. A round's latency
// is the time from starting its campaign to its Result. Each trial's
// service time, as the runner attributes it (in a batch: its admission
// and retirement plus an equal share of every step it rode in), is
// counted against the per-trial limit.
func (b *campaignBench) measure(ctx context.Context, seconds float64, part int, tr *tracer) (*window, error) {
	w := &window{}
	b.svc = b.svc[:0]
	if tr != nil {
		b.phases = make(map[trace.Phase]float64)
	}
	start := time.Now()
	for len(w.lat) == 0 || time.Since(start).Seconds() < seconds {
		r := len(b.rounds)
		c := b.c
		c.Seed = roundSeed(b.seed, r)
		c.Trials = roundTrials(b.spec.rate, seconds)
		roundTrace, roundID := tr.newTrace(), tr.newID()
		tel := core.NewTelemetry()
		// The runner calls the observer on the goroutine that called Run.
		obsFn := func(index int, spans []trace.Span, busy time.Duration) {
			b.svc = append(b.svc, busy)
			if busy <= b.spec.limit {
				w.within++
			}
			if tr == nil {
				return
			}
			for _, s := range spans {
				b.phases[s.Phase] += s.Seconds
				if s.Phase == trace.PhaseDecode {
					b.decodeTokens += s.Count
				}
			}
			trialSpans(tr, roundID, time.Now().Add(-busy), busy, spans)
		}
		rs := time.Now()
		res, err := core.NewRunner(c, core.WithBaseline(b.base), core.WithTelemetry(tel),
			core.WithSpanObserver(obsFn)).Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		re := time.Now()
		tr.record(roundID, roundTrace, "", "core.Runner.Run", rs, re)
		w.lat = append(w.lat, re.Sub(rs))
		w.rates = append(w.rates, float64(len(res.Trials))/re.Sub(rs).Seconds())
		b.rounds = append(b.rounds, roundResult{seed: c.Seed, res: res})
		w.ops += len(res.Trials)
		if tr != nil {
			b.account(tel.Snapshot(), res)
		}
	}
	w.wall = time.Since(start)
	w.cost = w.wall.Seconds() / float64(w.ops)
	return w, nil
}

// trialSpans lays one trial's phase timings out as spans under its own
// trace: prefill, decode and classify in sequence, with the ABFT check
// and mitigation time nested inside decode, where the checks run.
func trialSpans(tr *tracer, parent string, start time.Time, busy time.Duration, spans []trace.Span) {
	trace0 := tr.newTrace()
	trialID := tr.newID()
	tr.record(trialID, trace0, parent, "core.trial", start, start.Add(busy))
	phase := func(p trace.Phase) time.Duration {
		for _, s := range spans {
			if s.Phase == p {
				return time.Duration(s.Seconds * 1e9)
			}
		}
		return 0
	}
	at := start
	next := func(name string, d time.Duration) string {
		id := tr.add(trace0, trialID, name, at, at.Add(d))
		at = at.Add(d)
		return id
	}
	next("model.prefill", phase(trace.PhasePrefill))
	decStart := at
	decID := next("model.decode", phase(trace.PhaseDecode))
	if chk := phase(trace.PhaseABFTCheck); chk > 0 {
		tr.add(trace0, decID, "abft.check", decStart, decStart.Add(chk))
		decStart = decStart.Add(chk)
	}
	if mit := phase(trace.PhaseMitigate); mit > 0 {
		tr.add(trace0, decID, "abft.mitigate", decStart, decStart.Add(mit))
	}
	next("core.classify", phase(trace.PhaseClassify))
}

// account folds one traced round's telemetry into the layer totals
// (the phase times come from the span observer).
func (b *campaignBench) account(s core.TelemetrySnapshot, res *core.Result) {
	for _, ws := range s.Workers {
		b.busy += ws.BusySeconds
		b.capacity += s.ElapsedSeconds
	}
	b.batchRows += s.DecodeBatchRows
	b.batchStep += s.DecodeBatchSteps
	b.abftChecks += s.AbftChecks
	b.abftFP += s.AbftFalsePositives
	b.detected += s.AbftDetected
	b.missed += s.AbftMissed
	b.fired += s.Fired
	b.traced += len(res.Trials)
}

func (b *campaignBench) layers(ctx context.Context, w *window, tr *tracer, out map[string]float64) error {
	n := float64(b.traced)
	msPer := func(p trace.Phase) float64 { return ratio(b.phases[p]*1e3, n) }
	if b.c.Suite.Type == tasks.MultipleChoice {
		// core files MC option scoring under its decode phase.
		out["model.score_ms_per_trial"] = msPer(trace.PhaseDecode)
	} else {
		usPerTok := ratio(b.phases[trace.PhaseDecode]*1e6, float64(b.decodeTokens))
		out["model.decode_us_per_token"] = usPerTok
		out["model.decode_gflops"] = ratio(decodeFlops(b.c.Model.Cfg, b.meanDecodePos())/1e3, usPerTok)
	}
	out["model.prefill_ms_per_trial"] = msPer(trace.PhasePrefill)
	out["core.trial_p50_ms"], _ = tailPercentile(sortedMS(b.svc), 0.5)
	out["core.trial_p99_ms"], _ = tailPercentile(sortedMS(b.svc), 0.99)
	out["core.worker_util"] = ratio(b.busy, b.capacity)
	out["core.batch_occupancy"] = ratio(float64(b.batchRows), float64(b.batchStep))
	out["core.classify_ms_per_trial"] = msPer(trace.PhaseClassify)
	out["core.baseline_s"] = b.baseDur.Seconds()
	out["core.fired_frac"] = ratio(float64(b.fired), n)
	if b.c.ABFT != nil {
		out["abft.check_ms_per_trial"] = msPer(trace.PhaseABFTCheck)
		out["abft.checks_per_trial"] = ratio(float64(b.abftChecks), n)
		out["abft.false_positives"] = float64(b.abftFP)
		out["abft.detect_recall"] = ratio(float64(b.detected), float64(b.detected+b.missed))
	}
	if b.c.Fault.IsMemory() {
		us, err := armMicro(b.c.Model, b.c.Fault, tr)
		if err != nil {
			return err
		}
		out["faults.arm_us"] = us
	}
	return nil
}

// meanDecodePos is the mean context length a decoded token attends over:
// the mean prompt plus half the mean generated length.
func (b *campaignBench) meanDecodePos() float64 {
	var steps, trials float64
	for _, r := range b.rounds {
		for _, t := range r.res.Trials {
			steps += float64(t.Steps)
			trials++
		}
	}
	return meanPromptLen(b.c.Suite) + ratio(steps, 2*trials)
}

func meanPromptLen(s *tasks.Suite) float64 {
	var n float64
	for _, inst := range s.Instances {
		n += float64(len(inst.Prompt))
	}
	return n / float64(len(s.Instances))
}

// verify replays a seeded sample of the measured trials one at a time on
// the serial single-worker path and requires each to equal the original.
func (b *campaignBench) verify(ctx context.Context) (gate, error) {
	g := gate{digest: trialDigest(b.rounds[0].res.Trials)}
	src := prng.New(b.seed ^ 0x7e91a)
	for i := 0; i < replaySample; i++ {
		r := b.rounds[src.Intn(len(b.rounds))]
		idx := src.Intn(len(r.res.Trials))
		c := b.c
		c.Seed, c.Trials = r.seed, len(r.res.Trials)
		c.BatchDecode = 1
		c.Workers = 1
		res, err := core.NewRunner(c, core.WithOnly([]int{idx}), core.WithBaseline(b.base)).Run(ctx)
		if err != nil {
			return g, err
		}
		g.checked++
		if !sameTrial(res.Trials[idx], r.res.Trials[idx]) {
			g.mismatched++
		}
	}
	return g, nil
}
