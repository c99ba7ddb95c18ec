// Package core is the paper's methodology as a library: it evaluates
// fault-free baselines, runs statistical fault-injection campaigns over
// (model, task-suite, fault-model) configurations with a worker pool, and
// aggregates the outcomes into the normalized-performance numbers, SDC
// breakdowns, and bit-position profiles that the figures report.
package core

import (
	"strconv"
	"strings"

	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// AnswerChecker decides whether a generated token sequence answers an
// instance correctly — the Masked/SDC criterion for direct-answer tasks.
type AnswerChecker func(inst *tasks.Instance, generated []int) bool

// DefaultChecker derives the answer criterion from the suite: math suites
// compare the extracted number after the '#' marker against the gold
// answer; other generative suites compare the full text against the
// reference (so Masked = unchanged output, the strictest reading).
func DefaultChecker(suite *tasks.Suite) AnswerChecker {
	if strings.HasPrefix(suite.Name, "gsm8k") {
		marker := suite.Vocab.ID(tasks.MathAnswer)
		return func(inst *tasks.Instance, generated []int) bool {
			want, err := strconv.Atoi(inst.Reference)
			if err != nil {
				return false
			}
			got, ok := extractNumber(generated, marker, suite)
			return ok && got == want
		}
	}
	return func(inst *tasks.Instance, generated []int) bool {
		return suite.Vocab.Decode(generated) == inst.Reference
	}
}

// extractNumber returns the number following the last marker token,
// falling back to the last number token in the sequence.
func extractNumber(toks []int, marker int, suite *tasks.Suite) (int, bool) {
	val, found := 0, false
	for i, tok := range toks {
		v, err := strconv.Atoi(suite.Vocab.Word(tok))
		if err != nil {
			continue
		}
		if i > 0 && toks[i-1] == marker {
			val, found = v, true
		}
	}
	if found {
		return val, true
	}
	for i := len(toks) - 1; i >= 0; i-- {
		if v, err := strconv.Atoi(suite.Vocab.Word(toks[i])); err == nil {
			return v, true
		}
	}
	return 0, false
}

// reasoningLen returns the number of generated tokens before the math
// answer marker (the reasoning segment of §4.3.2).
func reasoningLen(toks []int, suite *tasks.Suite) int {
	marker := suite.Vocab.ID(tasks.MathAnswer)
	for i, tok := range toks {
		if tok == marker {
			return i
		}
	}
	return len(toks)
}

// InstanceBaseline is the fault-free result for one instance.
type InstanceBaseline struct {
	// Choice is the selected option (multiple-choice only).
	Choice int
	// Tokens / Text are the fault-free generation (generative only).
	Tokens []int
	Text   string
	// Reference is the effective reference text: the instance gold
	// reference, or the fault-free output when the instance has none
	// (self-relative evaluation for the untrained profile models).
	Reference string
	// Metrics are the fault-free quality scores against Reference.
	Metrics map[metrics.Kind]float64
	// AnswerOK reports whether the fault-free answer was correct.
	AnswerOK bool
	// ReasoningLen is the generated-token count before the math answer
	// marker (math suites only).
	ReasoningLen int
	// ExpertTrace records MoE expert selections per block (MoE greedy
	// decoding only).
	ExpertTrace [][]int
	// Steps counts decode steps (the runtime proxy of Figure 19).
	Steps int

	// prefix is the post-prompt KV snapshot captured during the fault-free
	// run, and prefixLogits the logits after the final prompt token. The
	// campaign engine forks trials from them instead of re-running prefill
	// when that is sound (generative computational faults, whose target
	// iteration lies past the prompt). Baseline-only; nil after Rerun.
	prefix       *model.State
	prefixLogits []float32
	// capture holds the instance's clean per-layer activations when the
	// runner traces the campaign: the propagation probes of sampled
	// trials diff against it, so tracing never re-runs a clean forward.
	// Sealed (read-only) before workers start.
	capture *trace.Capture
}

// Baseline is the fault-free evaluation of a suite on a model.
type Baseline struct {
	Suite     *tasks.Suite
	Instances []InstanceBaseline
	// MetricMeans holds the mean fault-free score per metric — the
	// P_fault_free denominators of the normalization.
	MetricMeans map[metrics.Kind]float64
	// GoldAccuracy is the fault-free accuracy against gold answers.
	GoldAccuracy float64
	// TotalSteps sums decode steps over all instances.
	TotalSteps int
}

// EvalBaseline runs the suite fault-free on m with the given generation
// settings (NumBeams etc.; MaxNewTokens is set per instance).
func EvalBaseline(m *model.Model, suite *tasks.Suite, gs gen.Settings, check AnswerChecker) *Baseline {
	return evalBaseline(m, suite, gs, check, true, nil)
}

// EvalBaseline evaluates the campaign's fault-free baseline with its
// effective decoding settings and answer checker — the same evaluation
// every runner of the campaign performs, ready to pass to WithBaseline.
func (c Campaign) EvalBaseline() *Baseline {
	gs, check := c.effective()
	return evalBaseline(c.Model, c.Suite, gs, check, true, nil)
}

// ResultBaseline evaluates the baseline a finished campaign's Result
// reports: every exported field equals EvalBaseline's, but it keeps no
// post-prompt KV snapshots, which only running trials read. The fabric
// coordinator completes its merged Result with it; the baseline is
// deterministic, so the copy is bit-identical to each worker's.
func (c Campaign) ResultBaseline() *Baseline {
	gs, check := c.effective()
	return evalBaseline(c.Model, c.Suite, gs, check, false, nil)
}

// evalBaseline is EvalBaseline with the snapshots optional (snap) plus
// optional activation capture: when capMinPos is non-nil, each
// instance's clean per-layer outputs from position capMinPos(inst)
// onward are recorded (via a temporary hook on m) into
// InstanceBaseline.capture for the propagation probes.
func evalBaseline(m *model.Model, suite *tasks.Suite, gs gen.Settings, check AnswerChecker, snap bool, capMinPos func(inst *tasks.Instance) int) *Baseline {
	if check == nil {
		check = DefaultChecker(suite)
	}
	b := &Baseline{Suite: suite, MetricMeans: map[metrics.Kind]float64{}}
	goldHits := 0
	for i := range suite.Instances {
		inst := &suite.Instances[i]
		var cc *trace.Capture
		if capMinPos != nil {
			cc = trace.NewCapture(capMinPos(inst))
			m.AddHook(cc.Hook())
		}
		ib := evalInstance(m, suite, inst, gs, check, true, snap, nil)
		if cc != nil {
			m.PopHook()
			cc.Seal()
			ib.capture = cc
		}
		b.Instances = append(b.Instances, ib)
		if ib.AnswerOK {
			goldHits++
		}
		for k, v := range ib.Metrics {
			b.MetricMeans[k] += v
		}
		b.TotalSteps += ib.Steps
	}
	n := float64(len(suite.Instances))
	for k := range b.MetricMeans {
		b.MetricMeans[k] /= n
	}
	b.GoldAccuracy = float64(goldHits) / n
	return b
}

// evalInstance runs one instance on the (possibly fault-armed) model.
// selfRefOK makes an empty instance reference count as a correct answer
// (fault-free runs define the reference). snap additionally captures the
// post-prompt state and logits into the returned baseline so later trials
// can resume from the shared prefix. sp, when non-nil, receives the
// phase timings (prefill/decode/classify) of the run.
func evalInstance(m *model.Model, suite *tasks.Suite, inst *tasks.Instance, gs gen.Settings, check AnswerChecker, selfRefOK, snap bool, sp *spanTimes) InstanceBaseline {
	var ib InstanceBaseline
	if suite.Type == tasks.MultipleChoice {
		decodeStart := now()
		choice, _ := gen.ChooseOption(m, inst.Prompt, inst.Options)
		if sp != nil {
			// Option scoring interleaves prefill and scoring passes; the
			// whole evaluation reports as one decode span (steps 0, so no
			// per-token observation is derived).
			sp.decode += since(decodeStart)
		}
		ib.Choice = choice
		ib.AnswerOK = choice == inst.Gold
		ib.Metrics = map[metrics.Kind]float64{metrics.KindAccuracy: b2f(ib.AnswerOK)}
		ib.Steps = scoreSteps(inst)
		return ib
	}

	gs.MaxNewTokens = inst.MaxNew
	gs.MinNewTokens = inst.MinNew
	st := m.NewState()
	// Expert-trace comparison is only defined for the single-path greedy
	// mode used by the MoE study (beam search forks states).
	expertTrace := m.Cfg.IsMoE() && gs.NumBeams <= 1
	if expertTrace {
		st.EnableExpertTrace()
	}
	prefillStart := now()
	logits := st.Prefill(inst.Prompt)
	if sp != nil {
		sp.prefill += since(prefillStart)
	}
	if snap {
		ib.prefix = st.Fork()
		ib.prefixLogits = append([]float32(nil), logits...)
	}
	decodeStart := now()
	res := gen.GenerateFrom(m, st, logits, gs)
	if sp != nil {
		sp.decode += since(decodeStart)
		sp.steps = res.Steps
	}
	res.Steps += len(inst.Prompt)
	if expertTrace {
		ib.ExpertTrace = st.ExpertTrace
	}
	classifyStart := now()
	finishGenerative(&ib, suite, inst, res, check, selfRefOK)
	if sp != nil {
		sp.classify += since(classifyStart)
	}
	return ib
}

// finishGenerative scores a completed generation into ib — shared by the
// full path above and the campaign's resume-from-prefix path.
func finishGenerative(ib *InstanceBaseline, suite *tasks.Suite, inst *tasks.Instance, res gen.Result, check AnswerChecker, selfRefOK bool) {
	ib.Tokens = res.Tokens
	ib.Text = suite.Vocab.Decode(res.Tokens)
	ib.Steps = res.Steps

	ib.Reference = inst.Reference
	if ib.Reference == "" {
		ib.Reference = ib.Text
		ib.AnswerOK = selfRefOK
	} else {
		ib.AnswerOK = check(inst, res.Tokens)
	}
	ib.Metrics = scoreGenerative(suite, ib.Text, ib.Reference, ib.AnswerOK)
	if strings.HasPrefix(suite.Name, "gsm8k") {
		ib.ReasoningLen = reasoningLen(res.Tokens, suite)
	}
}

// RerunInstance executes one instance on m (typically with a fault armed
// by the caller) and returns the output text — the chosen option for
// multiple-choice suites, the decoded generation otherwise. Campaign
// trials store metrics rather than full outputs; reports re-run the
// interesting trials through this to show example outputs (Figures 7,
// 12, 15).
func RerunInstance(m *model.Model, suite *tasks.Suite, inst *tasks.Instance) string {
	ib := evalInstance(m, suite, inst, defaultGen(), DefaultChecker(suite), false, false, nil)
	if suite.Type == tasks.MultipleChoice {
		return suite.Vocab.DecodeAll(inst.Options[ib.Choice])
	}
	return ib.Text
}

// scoreSteps estimates decode steps for a multiple-choice instance: the
// prompt plus each option is processed once per option scoring.
func scoreSteps(inst *tasks.Instance) int {
	steps := 0
	for _, opt := range inst.Options {
		steps += len(inst.Prompt) + len(opt)
	}
	return steps
}

// scoreGenerative computes the suite's metrics for a candidate text.
func scoreGenerative(suite *tasks.Suite, text, reference string, answerOK bool) map[metrics.Kind]float64 {
	out := make(map[metrics.Kind]float64, len(suite.Metrics))
	for _, k := range suite.Metrics {
		if k == metrics.KindAccuracy {
			out[k] = b2f(answerOK)
			continue
		}
		out[k] = metrics.ByKind(k)(text, reference)
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
