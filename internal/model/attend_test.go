package model

import (
	"math"
	"testing"

	"repro/internal/prng"
	"repro/internal/tensor"
)

// refAttend is attendAt written out with one key position and one output
// channel per loop: each channel sums w·v over positions t ascending,
// skipping zero weights. It is the reference the GEMV value mix inside
// attendAt is pinned to.
func refAttend(m *Model, st *State, bi, pos int, qrow, out []float32) {
	hd := m.Cfg.HeadDim()
	scale := 1 / math.Sqrt(float64(hd))
	K, V := st.K[bi], st.V[bi]
	scores := make([]float32, pos+1)
	for h := 0; h < m.Cfg.NHeads; h++ {
		off := h * hd
		for t := range scores {
			var dot float64
			for i, kv := range K.Row(t)[off : off+hd] {
				dot += float64(qrow[off+i]) * float64(kv)
			}
			scores[t] = float32(dot * scale)
		}
		tensor.SoftmaxRow(scores)
		for i := 0; i < hd; i++ {
			var s float32
			for t, w := range scores {
				if w != 0 {
					s += w * V.Row(t)[off+i]
				}
			}
			out[off+i] = s
		}
	}
}

// TestAttendValueMixMatchesReference checks attendAt against refAttend
// bit for bit (any NaN matching any NaN) for head widths that exercise
// each SIMD block size and the scalar tail, with cached values holding
// NaN and ±Inf as a KV-cache fault leaves them, at positions whose
// softmax weight is exactly zero and at positions whose weight is not.
func TestAttendValueMixMatchesReference(t *testing.T) {
	for _, shape := range []struct{ d, heads int }{{64, 4}, {40, 2}, {40, 1}, {24, 4}} {
		cfg := testSpec(QwenS)
		cfg.DModel, cfg.NHeads, cfg.MaxSeq = shape.d, shape.heads, 48
		m := MustBuild(cfg)
		st := m.NewState()
		src := prng.New(uint64(shape.d*10 + shape.heads))
		for _, c := range append(st.K, st.V...) {
			for i := range c.Data {
				c.Data[i] = float32(src.NormFloat64())
			}
		}
		for _, V := range st.V {
			V.Set(3, 1, float32(math.NaN()))
			V.Set(7, shape.d-1, float32(math.Inf(1)))
			V.Set(9, shape.d/2, float32(math.Inf(-1)))
		}
		// In block 0, one dominant key underflows the other weights of
		// the heads it wins to exactly 0, so the NaN and ±Inf values
		// above are skipped there; block 1 mixes them in.
		for i := range st.K[0].Row(5) {
			st.K[0].Row(5)[i] *= 200
		}
		q := make([]float32, shape.d)
		for i := range q {
			q[i] = float32(src.NormFloat64())
		}
		for _, bi := range []int{0, 1} {
			for _, pos := range []int{0, 5, 11, 47} {
				got := make([]float32, shape.d)
				want := make([]float32, shape.d)
				m.attendAt(st, bi, pos, q, got)
				refAttend(m, st, bi, pos, q, want)
				for i := range got {
					g, w := got[i], want[i]
					if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
						t.Fatalf("d=%d heads=%d block %d pos %d: channel %d = %v, reference %v",
							shape.d, shape.heads, bi, pos, i, g, w)
					}
				}
			}
		}
	}
}
