package gen

import "repro/internal/tensor"

// Stepper is the greedy decode loop unrolled into a per-token state
// machine, so a continuous-batching scheduler can interleave many
// trials' loops while each one visits exactly the computation the
// serial ContinueGreedy would. Feed it the logits of the current
// position; it tells you which token to decode next and whether to
// keep going. ContinueGreedy itself is rewritten on top of Stepper, so
// the two can never drift apart.
type Stepper struct {
	s    Settings
	res  Result
	i    int
	done bool
}

// NewStepper starts a greedy decode under s.
func NewStepper(s Settings) *Stepper {
	return &Stepper{s: s}
}

// Next consumes the logits of the state's current position and returns
// the chosen token plus whether the caller should run a decode step
// with it. The logits are masked in place exactly as ContinueGreedy
// masks them. pos and maxSeq are the state's position and the model's
// sequence capacity — when step is false the loop is over and Result
// holds the finished generation. Note the serial loop runs one final
// DecodeStep whose logits are never consumed (the step that would
// produce the token after the last kept one); Next preserves that:
// step is true for the last kept token, and the following Next call
// returns step=false without looking at the logits only when the token
// budget is exhausted.
func (sp *Stepper) Next(logits []float32, pos, maxSeq int) (tok int, step bool) {
	if sp.done || sp.i >= sp.s.MaxNewTokens {
		return 0, false
	}
	masked := maskLogits(logits, sp.s, sp.i)
	next := tensor.Argmax(masked)
	sp.res.LogProb += tensor.LogSoftmaxAt(masked, next)
	sp.res.Steps++
	sp.i++
	if next == sp.s.StopToken {
		sp.res.Stopped = true
		sp.done = true
		return next, false
	}
	sp.res.Tokens = append(sp.res.Tokens, next)
	if pos >= maxSeq {
		sp.done = true
		return next, false
	}
	return next, true
}

// Result returns the generation accumulated so far; it is final once
// Next has returned step=false.
func (sp *Stepper) Result() Result {
	return sp.res
}
