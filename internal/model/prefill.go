package model

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// batchForwarder is implemented by weights that can push a whole block of
// activation rows through the layer at once. Implementations must keep
// every output row bit-identical to Forward on that row; Dense reuses the
// row-parallel matmul, whose per-row accumulation order matches MatVec.
// Weights without the interface (e.g. quantized storage) fall back to a
// per-row Forward loop, which is trivially identical.
type batchForwarder interface {
	ForwardBatch(out, x *tensor.Tensor, workers int)
}

// ForwardBatch computes out = x · W over all rows of x with up to workers
// goroutines.
func (d *Dense) ForwardBatch(out, x *tensor.Tensor, workers int) {
	tensor.MatMulP(out, x, d.T, workers)
}

// forwardRows runs every row of x through w into out, batched when the
// weight supports it.
func forwardRows(w Weight, out, x *tensor.Tensor, workers int) {
	if bf, ok := w.(batchForwarder); ok {
		bf.ForwardBatch(out, x, workers)
		return
	}
	for i := 0; i < x.Rows; i++ {
		w.Forward(out.Row(i), x.Row(i))
	}
}

// Prefill processes the whole prompt and returns the logits after the
// final prompt token (the distribution over the first generated token).
//
// Unlike the seed's per-token recurrence, each block runs its linear
// layers as one m×k matmul over every prompt position, which is where
// campaign prefill time goes. The result is bit-identical to the
// sequential loop: linears, norms, RoPE, and SwiGLU act on positions
// independently, causal attention at position p reads only KV rows <= p
// (all written earlier in the same block pass), and per-row float32
// accumulation order inside the matmul matches MatVec exactly.
//
// finishLinear — hook firing plus datatype rounding — still runs once per
// (layer, position), in increasing position order within each layer, so
// injected faults and mitigations observe the same vectors they would
// have seen token by token.
func (st *State) Prefill(prompt []int) []float32 {
	if len(prompt) == 0 {
		panic("model: empty prompt")
	}
	if st.m.seqPrefill {
		return st.prefillSequential(prompt)
	}
	if len(prompt) == 1 {
		return st.DecodeStep(prompt[0])
	}
	m := st.m
	cfg := &m.Cfg
	n := len(prompt)
	if st.Pos+n > cfg.MaxSeq {
		panic(fmt.Sprintf("model: context overflow (max %d)", cfg.MaxSeq))
	}
	base := st.Pos
	threads := m.matmulThreads()

	pf := st.prefillScratch(n)
	X, H, Q, Kb, Vb, A, D := &pf.X, &pf.H, &pf.Q, &pf.Kb, &pf.Vb, &pf.A, &pf.D
	FF1, FF2, FFA, R := &pf.FF1, &pf.FF2, &pf.FFA, &pf.R

	for i, tok := range prompt {
		if tok < 0 || tok >= cfg.Vocab {
			tok = 0
		}
		copy(X.Row(i), m.Embed.Row(tok))
	}

	// finishRows applies finishLinear per position, preserving the
	// per-position hook order of the sequential path within each layer.
	// in is the input tensor the batched matmul consumed, row-aligned
	// with the output — the checker verifies each position against the
	// exact input row its GEMM used.
	finishRows := func(ref LayerRef, w Weight, in, out *tensor.Tensor) {
		for i := 0; i < n; i++ {
			m.finishLinear(ref, base+i, w, in.Row(i), out.Row(i))
		}
	}
	normRows := func(t *tensor.Tensor, gain []float32) {
		for i := 0; i < n; i++ {
			tensor.RMSNormRow(t.Row(i), gain, cfg.Eps)
		}
	}

	for bi, blk := range m.Blocks {
		// --- attention sub-block ---
		H.CopyFrom(X)
		normRows(H, blk.AttnNorm)

		forwardRows(blk.Wq, Q, H, threads)
		finishRows(LayerRef{bi, KindQ, -1}, blk.Wq, H, Q)
		forwardRows(blk.Wk, Kb, H, threads)
		finishRows(LayerRef{bi, KindK, -1}, blk.Wk, H, Kb)
		forwardRows(blk.Wv, Vb, H, threads)
		finishRows(LayerRef{bi, KindV, -1}, blk.Wv, H, Vb)

		for i := 0; i < n; i++ {
			m.applyRoPE(Q.Row(i), base+i)
			m.applyRoPE(Kb.Row(i), base+i)
			copy(st.K[bi].Row(base+i), Kb.Row(i))
			copy(st.V[bi].Row(base+i), Vb.Row(i))
		}
		// Causal attention per position: position p reads cache rows
		// 0..p, all of which this pass has already written.
		for i := 0; i < n; i++ {
			m.attendAt(st, bi, base+i, Q.Row(i), A.Row(i))
		}

		forwardRows(blk.Wo, H, A, threads)
		finishRows(LayerRef{bi, KindOut, -1}, blk.Wo, A, H)
		X.AddInPlace(H)

		// --- MLP / MoE sub-block ---
		H.CopyFrom(X)
		normRows(H, blk.MLPNorm)

		if blk.Router != nil {
			forwardRows(blk.Router, R, H, threads)
			finishRows(LayerRef{bi, KindRouter, -1}, blk.Router, H, R)
			for i := 0; i < n; i++ {
				m.moeMix(m.rc(), st, blk, bi, base+i, R.Row(i), H.Row(i), D.Row(i))
			}
		} else {
			forwardRows(blk.MLP.WGate, FF1, H, threads)
			finishRows(LayerRef{bi, KindGate, -1}, blk.MLP.WGate, H, FF1)
			forwardRows(blk.MLP.WUp, FF2, H, threads)
			finishRows(LayerRef{bi, KindUp, -1}, blk.MLP.WUp, H, FF2)
			for i, g := range FF1.Data {
				FFA.Data[i] = float32(float64(g)/(1+math.Exp(-float64(g)))) * FF2.Data[i]
			}
			forwardRows(blk.MLP.WDown, D, FFA, threads)
			finishRows(LayerRef{bi, KindDown, -1}, blk.MLP.WDown, FFA, D)
		}
		X.AddInPlace(D)
	}

	normRows(X, m.FinalNorm)
	if len(m.hooks) > 0 {
		// Hooks observe (and may mutate) the LM-head output of every
		// position in the sequential path; keep that visible behaviour.
		L := tensor.New(n, cfg.Vocab)
		forwardRows(m.LMHead, L, X, threads)
		finishRows(LayerRef{-1, KindLMHead, -1}, m.LMHead, X, L)
		copy(st.logits, L.Row(n-1))
	} else {
		// Without hooks the intermediate logits are unobservable and
		// immediately overwritten — compute only the final row.
		m.LMHead.Forward(st.logits, X.Row(n-1))
		m.finishLinear(LayerRef{-1, KindLMHead, -1}, base+n-1, m.LMHead, X.Row(n-1), st.logits)
	}

	st.Pos += n
	return st.logits
}

// prefillActs holds Prefill's prompt-sized activations, n rows each.
type prefillActs struct {
	X   tensor.Tensor // residual stream
	H   tensor.Tensor // normed input / attn-out projection
	Q   tensor.Tensor // query rows
	Kb  tensor.Tensor // key rows (pre-cache)
	Vb  tensor.Tensor // value rows (pre-cache)
	A   tensor.Tensor // concatenated attention head outputs
	D   tensor.Tensor // MLP / MoE block output
	FF1 tensor.Tensor
	FF2 tensor.Tensor
	FFA tensor.Tensor
	R   tensor.Tensor // router logits (MoE only)
}

// prefillScratch returns Prefill's activations for an n-token prompt as
// views over one buffer kept on the state, grown to the longest prompt
// the state has prefilled. Reuse needs no clearing: Prefill writes every
// row of each tensor before it reads it.
func (st *State) prefillScratch(n int) *prefillActs {
	cfg := &st.m.Cfg
	d, ff := cfg.DModel, cfg.FFHidden
	need := n * (7*d + 3*ff + cfg.NumExperts)
	if cap(st.pfBuf) < need {
		st.pfBuf = make([]float32, need)
	}
	buf := st.pfBuf[:need]
	view := func(t *tensor.Tensor, cols int) {
		*t = tensor.Tensor{Rows: n, Cols: cols, Data: buf[: n*cols : n*cols]}
		buf = buf[n*cols:]
	}
	pf := &st.pf
	for _, t := range []*tensor.Tensor{&pf.X, &pf.H, &pf.Q, &pf.Kb, &pf.Vb, &pf.A, &pf.D} {
		view(t, d)
	}
	view(&pf.FF1, ff)
	view(&pf.FF2, ff)
	view(&pf.FFA, ff)
	view(&pf.R, cfg.NumExperts)
	return pf
}
