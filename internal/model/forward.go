package model

import (
	"fmt"
	"math"

	"repro/internal/numerics"
	"repro/internal/tensor"
)

// State holds the mutable per-inference state: the KV cache and scratch
// buffers. A Model may serve many States; a State must not be shared
// between goroutines.
type State struct {
	m   *Model
	Pos int // number of tokens processed so far

	// Per block: cached keys and values, MaxSeq x DModel (head-major rows).
	K, V []*tensor.Tensor

	// Scratch buffers reused across steps.
	x, h, q, k, v, attnOut, ff1, ff2, ffa, logits []float32
	routerLogits                                  []float32
	attnScores                                    []float32
	attnQ                                         []float64

	// Prefill's activations, reused across calls (prefill.go).
	pf    prefillActs
	pfBuf []float32

	// ExpertTrace, when non-nil, records the experts selected at each step
	// for each MoE block — Figure 15's "expert selection changed" analysis.
	ExpertTrace [][]int
}

// NewState allocates inference state for m.
func (m *Model) NewState() *State {
	st := &State{m: m}
	st.K = make([]*tensor.Tensor, m.Cfg.NBlocks)
	st.V = make([]*tensor.Tensor, m.Cfg.NBlocks)
	for i := range st.K {
		st.K[i] = tensor.New(m.Cfg.MaxSeq, m.Cfg.DModel)
		st.V[i] = tensor.New(m.Cfg.MaxSeq, m.Cfg.DModel)
	}
	d, ff := m.Cfg.DModel, m.Cfg.FFHidden
	st.x = make([]float32, d)
	st.h = make([]float32, d)
	st.q = make([]float32, d)
	st.k = make([]float32, d)
	st.v = make([]float32, d)
	st.attnOut = make([]float32, d)
	st.ff1 = make([]float32, ff)
	st.ff2 = make([]float32, ff)
	st.ffa = make([]float32, ff)
	st.logits = make([]float32, m.Cfg.Vocab)
	st.attnScores = make([]float32, m.Cfg.MaxSeq)
	st.attnQ = make([]float64, m.Cfg.HeadDim())
	if m.Cfg.IsMoE() {
		st.routerLogits = make([]float32, m.Cfg.NumExperts)
	}
	return st
}

// Reset rewinds the state to an empty context so the buffers can be
// reused for a fresh inference.
func (st *State) Reset() {
	st.Pos = 0
	st.ExpertTrace = nil
}

// Fork returns an independent copy of the state: position and the live
// prefix of the KV cache are duplicated, scratch buffers are fresh. Beam
// search forks candidate hypotheses from a shared prefix with this.
func (st *State) Fork() *State { return st.ForkFor(st.m) }

// ForkFor returns a copy of the state bound to m2, which must be the
// state's own model or a clone with the same architecture. Campaign
// workers fork the baseline's post-prompt snapshot onto their own clone
// so the clone's hooks — not the baseline model's — fire when generation
// continues from the shared prefix.
func (st *State) ForkFor(m2 *Model) *State {
	if m2.Cfg.DModel != st.m.Cfg.DModel || m2.Cfg.NBlocks != st.m.Cfg.NBlocks || m2.Cfg.MaxSeq != st.m.Cfg.MaxSeq {
		panic("model: ForkFor across different architectures")
	}
	return st.forkInto(m2.NewState())
}

// ForkForInto is ForkFor recycling a retired state's buffers instead of
// allocating fresh ones: dst must have come from NewState/ForkFor on a
// model of the same architecture, and everything it held is overwritten.
// A continuous-batching scheduler retires and admits one trial state per
// slot turnover; reusing the KV allocations keeps that churn off the
// allocator. A nil dst falls back to a fresh fork.
func (st *State) ForkForInto(m2 *Model, dst *State) *State {
	if dst == nil {
		return st.ForkFor(m2)
	}
	if m2.Cfg.DModel != st.m.Cfg.DModel || m2.Cfg.NBlocks != st.m.Cfg.NBlocks || m2.Cfg.MaxSeq != st.m.Cfg.MaxSeq {
		panic("model: ForkForInto across different architectures")
	}
	dst.m = m2
	dst.ExpertTrace = nil
	return st.forkInto(dst)
}

// forkInto copies the prefix snapshot into ns. Rows of ns's KV cache at
// or beyond st.Pos are left stale; attention only ever reads positions
// below the state's cursor, and decode writes each row before the step
// that reads it, so stale tails are unobservable.
func (st *State) forkInto(ns *State) *State {
	ns.Pos = st.Pos
	for i := range st.K {
		n := st.Pos * st.m.Cfg.DModel
		copy(ns.K[i].Data[:n], st.K[i].Data[:n])
		copy(ns.V[i].Data[:n], st.V[i].Data[:n])
	}
	if st.ExpertTrace != nil {
		ns.ExpertTrace = make([][]int, len(st.ExpertTrace))
		for i, tr := range st.ExpertTrace {
			ns.ExpertTrace[i] = append([]int(nil), tr...)
		}
	}
	return ns
}

// EnableExpertTrace starts recording MoE expert selections per block.
func (st *State) EnableExpertTrace() {
	st.ExpertTrace = make([][]int, st.m.Cfg.NBlocks)
}

// DecodeStep runs one token through the model, appending to the KV cache,
// and returns the next-token logits. The returned slice is reused by the
// next call; copy it if it must outlive the step.
func (st *State) DecodeStep(tok int) []float32 {
	m := st.m
	cfg := &m.Cfg
	if st.Pos >= cfg.MaxSeq {
		panic(fmt.Sprintf("model: context overflow (max %d)", cfg.MaxSeq))
	}
	if tok < 0 || tok >= cfg.Vocab {
		tok = 0
	}
	pos := st.Pos
	d := cfg.DModel

	copy(st.x, m.Embed.Row(tok))

	for bi, blk := range m.Blocks {
		// --- attention sub-block ---
		copy(st.h, st.x)
		tensor.RMSNormRow(st.h, blk.AttnNorm, cfg.Eps)

		blk.Wq.Forward(st.q, st.h)
		m.finishLinear(LayerRef{bi, KindQ, -1}, pos, blk.Wq, st.h, st.q)
		blk.Wk.Forward(st.k, st.h)
		m.finishLinear(LayerRef{bi, KindK, -1}, pos, blk.Wk, st.h, st.k)
		blk.Wv.Forward(st.v, st.h)
		m.finishLinear(LayerRef{bi, KindV, -1}, pos, blk.Wv, st.h, st.v)

		m.applyRoPE(st.q, pos)
		m.applyRoPE(st.k, pos)

		copy(st.K[bi].Row(pos), st.k)
		copy(st.V[bi].Row(pos), st.v)

		m.attendAt(st, bi, pos, st.q, st.attnOut)
		if len(m.attnHooks) > 0 {
			m.runAttnHooks(LayerRef{bi, KindAttnAct, -1}, pos, st.attnOut)
		}

		blk.Wo.Forward(st.h, st.attnOut)
		m.finishLinear(LayerRef{bi, KindOut, -1}, pos, blk.Wo, st.attnOut, st.h)
		for i := range st.x {
			st.x[i] += st.h[i]
		}

		// --- MLP / MoE sub-block ---
		copy(st.h, st.x)
		tensor.RMSNormRow(st.h, blk.MLPNorm, cfg.Eps)

		if blk.Router != nil {
			m.moeForward(st, blk, bi, pos)
		} else {
			m.mlpForward(m.rc(), st, blk.MLP, LayerRef{bi, 0, -1}, pos, st.h, st.h)
		}
		for i := 0; i < d; i++ {
			st.x[i] += st.h[i]
		}
	}

	tensor.RMSNormRow(st.x, m.FinalNorm, cfg.Eps)
	m.LMHead.Forward(st.logits, st.x)
	m.finishLinear(LayerRef{-1, KindLMHead, -1}, pos, m.LMHead, st.x, st.logits)

	st.Pos++
	return st.logits
}

// mlpForward computes dst = down(silu(gate(h)) * up(h)). base carries the
// block and expert indices; its Kind field is overwritten per projection.
// dst and h may alias. rc selects whose hooks and checker observe the
// three projections (the row's own trial in a decode batch).
func (m *Model) mlpForward(rc rowCtx, st *State, mlp *MLPWeights, base LayerRef, pos int, dst, h []float32) {
	base.Kind = KindGate
	mlp.WGate.Forward(st.ff1, h)
	m.finishLinearRC(rc, base, pos, mlp.WGate, h, st.ff1)
	base.Kind = KindUp
	mlp.WUp.Forward(st.ff2, h)
	m.finishLinearRC(rc, base, pos, mlp.WUp, h, st.ff2)
	for i, g := range st.ff1 {
		st.ffa[i] = float32(float64(g)/(1+math.Exp(-float64(g)))) * st.ff2[i]
	}
	base.Kind = KindDown
	mlp.WDown.Forward(dst, st.ffa)
	m.finishLinearRC(rc, base, pos, mlp.WDown, st.ffa, dst)
}

// moeForward routes h through the top-K experts selected by the router
// gate layer and writes the probability-weighted mixture to st.h.
func (m *Model) moeForward(st *State, blk *Block, bi, pos int) {
	blk.Router.Forward(st.routerLogits, st.h)
	m.finishLinear(LayerRef{bi, KindRouter, -1}, pos, blk.Router, st.h, st.routerLogits)
	m.moeMix(m.rc(), st, blk, bi, pos, st.routerLogits, st.h, st.h)
}

// moeMix routes the post-norm row h through the top-K experts selected by
// the already-finished router logits and writes the probability-weighted
// mixture to dst. dst may alias h. Batched prefill runs the router linear
// for all positions at once and then mixes per position through here; the
// decode batch engine does the same, handing each row's own rc.
func (m *Model) moeMix(rc rowCtx, st *State, blk *Block, bi, pos int, routerLogits, h, dst []float32) {
	cfg := &m.Cfg
	sel := tensor.TopK(routerLogits, cfg.TopK)
	if st.ExpertTrace != nil {
		st.ExpertTrace[bi] = append(st.ExpertTrace[bi], sel...)
	}
	// Softmax over the selected logits only (Mixtral-style renormalization).
	probs := make([]float32, len(sel))
	var maxv float32 = float32(math.Inf(-1))
	for i, e := range sel {
		probs[i] = routerLogits[e]
		if probs[i] > maxv {
			maxv = probs[i]
		}
	}
	var sum float64
	for i := range probs {
		p := math.Exp(float64(probs[i] - maxv))
		probs[i] = float32(p)
		sum += p
	}
	if sum > 0 && !math.IsNaN(sum) && !math.IsInf(sum, 0) {
		for i := range probs {
			probs[i] = float32(float64(probs[i]) / sum)
		}
	} else {
		for i := range probs {
			probs[i] = 1 / float32(len(probs))
		}
	}

	mix := make([]float32, cfg.DModel)
	out := make([]float32, cfg.DModel)
	for i, e := range sel {
		m.mlpForward(rc, st, blk.Experts[e], LayerRef{bi, 0, e}, pos, out, h)
		w := probs[i]
		for j, v := range out {
			mix[j] += w * v
		}
	}
	copy(dst, mix)
}

// attendAt computes causal multi-head attention for the token at pos using
// the block's KV cache: q is the position's rotated query row and the
// concatenated head outputs are written to out.
func (m *Model) attendAt(st *State, bi, pos int, qrow, out []float32) {
	cfg := &m.Cfg
	hd := cfg.HeadDim()
	scale := 1 / math.Sqrt(float64(hd))
	K, V := st.K[bi], st.V[bi]
	n := pos + 1

	scores := st.attnScores[:n]
	qf := st.attnQ[:hd]
	for h := 0; h < cfg.NHeads; h++ {
		off := h * hd
		for i, qv := range qrow[off : off+hd] {
			qf[i] = float64(qv)
		}
		// Four key positions per pass: each dot keeps its own float64
		// accumulator summed in i-ascending order — the exact sequence of
		// the one-position loop below — so every score is bit-identical
		// while the four independent chains hide the FP-add latency that
		// bounds a lone dot product.
		t := 0
		for ; t+4 <= n; t += 4 {
			k0 := K.Row(t)[off : off+hd]
			// Reslicing everything to len(k0) (all are hd long) lets the
			// compiler prove the range index in bounds for every operand,
			// dropping four per-element bounds checks from the hot loop.
			k1 := K.Row(t + 1)[off : off+hd][:len(k0)]
			k2 := K.Row(t + 2)[off : off+hd][:len(k0)]
			k3 := K.Row(t + 3)[off : off+hd][:len(k0)]
			qh := qf[:len(k0)]
			var d0, d1, d2, d3 float64
			for i, kv := range k0 {
				qv := qh[i]
				d0 += qv * float64(kv)
				d1 += qv * float64(k1[i])
				d2 += qv * float64(k2[i])
				d3 += qv * float64(k3[i])
			}
			scores[t] = float32(d0 * scale)
			scores[t+1] = float32(d1 * scale)
			scores[t+2] = float32(d2 * scale)
			scores[t+3] = float32(d3 * scale)
		}
		for ; t < n; t++ {
			krow := K.Row(t)[off : off+hd]
			var dot float64
			for i, kv := range krow {
				dot += qf[i] * float64(kv)
			}
			scores[t] = float32(dot * scale)
		}
		tensor.SoftmaxRow(scores[:n])
		// Attention-weighted value mix: the GEMV of the weights over this
		// head's columns of the cached V rows, so each output channel sums
		// w·v in t-ascending order with zero weights skipped.
		tensor.MatVecStrided(out[off:off+hd], scores[:n], V.Data[off:], V.Cols)
	}
}

// rowCtx is the observation context of one activation row: which hooks
// fire on each linear-layer output and which checker verifies it. The
// serial path uses the model's registered hooks and checker for every
// row; the batched decode engine builds one rowCtx per in-flight trial
// so each batch row keeps its own injection site and detection verdict
// while sharing the stacked GEMMs.
type rowCtx struct {
	hooks   []Hook
	checker LinearChecker
}

// rc returns the model's own observation context (registered hooks plus
// the armed checker) — what every serial forward pass runs under.
func (m *Model) rc() rowCtx { return rowCtx{hooks: m.hooks, checker: m.checker} }

// finishLinear applies the model's forward hooks to a linear layer's
// output, runs the linear checker if one is armed, and requantizes the
// output to the model datatype.
func (m *Model) finishLinear(ref LayerRef, pos int, w Weight, in, out []float32) {
	m.finishLinearRC(m.rc(), ref, pos, w, in, out)
}

// finishLinearRC is finishLinear under an explicit row context. Hooks
// run before rounding so an injected bit pattern is exactly the DType
// value; the checker runs after the hooks (it must see the fault) and
// before rounding (so its noise floor is the float32 kernel, not the
// storage datatype). w and in are the layer's weight and input row,
// which the checker needs to form the expected checksum and recompute a
// flagged output.
func (m *Model) finishLinearRC(rc rowCtx, ref LayerRef, pos int, w Weight, in, out []float32) {
	for _, h := range rc.hooks {
		h(ref, pos, out)
	}
	if rc.checker != nil {
		rc.checker.CheckLinear(ref, pos, w, in, out)
	}
	numerics.RoundSlice(m.Cfg.DType, out)
}

// applyRoPE rotates adjacent element pairs of each head of vec by the
// position-dependent angles of rotary position embedding.
func (m *Model) applyRoPE(vec []float32, pos int) {
	cosT, sinT := m.ropeCos[pos], m.ropeSin[pos]
	hd := m.Cfg.HeadDim()
	for h := 0; h < m.Cfg.NHeads; h++ {
		off := h * hd
		for i := 0; i < hd/2; i++ {
			c, s := cosT[i], sinT[i]
			a, b := vec[off+2*i], vec[off+2*i+1]
			vec[off+2*i] = a*c - b*s
			vec[off+2*i+1] = a*s + b*c
		}
	}
}

// InitRope precomputes the rotary embedding tables for every position.
// Build and Load call it automatically; packages that assemble a Model
// from parts (quantization, training export) must call it once before
// inference.
func (m *Model) InitRope() { m.initRope() }

// initRope precomputes the rotary tables for every position.
func (m *Model) initRope() {
	cfg := &m.Cfg
	hd := cfg.HeadDim()
	m.ropeCos = make([][]float32, cfg.MaxSeq)
	m.ropeSin = make([][]float32, cfg.MaxSeq)
	for p := 0; p < cfg.MaxSeq; p++ {
		cosT := make([]float32, hd/2)
		sinT := make([]float32, hd/2)
		for i := 0; i < hd/2; i++ {
			freq := 1 / math.Pow(cfg.RopeTheta, float64(2*i)/float64(hd))
			ang := float64(p) * freq
			cosT[i] = float32(math.Cos(ang))
			sinT[i] = float32(math.Sin(ang))
		}
		m.ropeCos[p] = cosT
		m.ropeSin[p] = sinT
	}
}

// prefillSequential feeds every prompt token through DecodeStep and
// returns the logits after the final prompt token. This is the seed
// per-token reference path; the batched Prefill in prefill.go is pinned
// bit-for-bit to it by golden tests, and SetSequentialPrefill routes
// Prefill back through here for those tests and for before/after
// benchmarks.
func (st *State) prefillSequential(prompt []int) []float32 {
	if len(prompt) == 0 {
		panic("model: empty prompt")
	}
	var logits []float32
	for _, t := range prompt {
		logits = st.DecodeStep(t)
	}
	return logits
}
