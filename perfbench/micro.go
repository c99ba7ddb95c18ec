package main

import (
	"runtime"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/prng"
	"repro/internal/tensor"
)

// microBudget is how long each kernel measurement runs.
const microBudget = 300 * time.Millisecond

// matmulRows is the row count of the matmul measurement: about a long
// prompt's prefill.
const matmulRows = 120

// layerShapes returns the (k, n) weight shapes of the linear layers one
// decoded token passes through, one entry per layer invocation: q, k, v,
// o, gate, up and down in every block, then the LM head.
func layerShapes(cfg model.Config) [][2]int {
	d, ff := cfg.DModel, cfg.FFHidden
	var out [][2]int
	for b := 0; b < cfg.NBlocks; b++ {
		out = append(out, [2]int{d, d}, [2]int{d, d}, [2]int{d, d}, [2]int{d, d},
			[2]int{d, ff}, [2]int{d, ff}, [2]int{ff, d})
	}
	return append(out, [2]int{d, cfg.Vocab})
}

// decodeFlops is the floating-point operation count of decoding one
// token at context length pos, computed from the model's shapes: two per
// weight of every linear layer, plus attention scores and value mixing
// (2·pos·d each) in every block.
func decodeFlops(cfg model.Config, pos float64) float64 {
	var f float64
	for _, s := range layerShapes(cfg) {
		f += 2 * float64(s[0]*s[1])
	}
	return f + float64(cfg.NBlocks)*4*pos*float64(cfg.DModel)
}

func randTensor(src *prng.Source, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32(src.NormFloat64())
	}
	return t
}

// kernelLayers measures tensor.MatVec over one token's layer shapes and
// tensor.MatMulP at matmulRows rows over the same shapes, each for
// microBudget, and reports GFLOP/s computed from the shapes.
func kernelLayers(tr *tracer, out map[string]float64) {
	shapes := layerShapes(profileConfig())
	src := prng.New(0x6b65726e)
	ws := make([]*tensor.Tensor, len(shapes))
	xs := make([][]float32, len(shapes))
	ys := make([][]float32, len(shapes))
	var flopsPerPass float64
	for i, s := range shapes {
		ws[i] = randTensor(src, s[0], s[1])
		xs[i] = randTensor(src, 1, s[0]).Data
		ys[i] = make([]float32, s[1])
		flopsPerPass += 2 * float64(s[0]*s[1])
	}

	trace := tr.newTrace()
	start := time.Now()
	passes := 0
	for time.Since(start) < microBudget {
		for i, w := range ws {
			tensor.MatVec(ys[i], xs[i], w)
		}
		passes++
	}
	end := time.Now()
	tr.add(trace, "", "tensor.MatVec", start, end)
	out["tensor.matvec_gflops"] = float64(passes) * flopsPerPass / end.Sub(start).Seconds() / 1e9

	as := make([]*tensor.Tensor, len(shapes))
	outs := make([]*tensor.Tensor, len(shapes))
	for i, s := range shapes {
		as[i] = randTensor(src, matmulRows, s[0])
		outs[i] = tensor.New(matmulRows, s[1])
	}
	workers := runtime.GOMAXPROCS(0)
	start = time.Now()
	passes = 0
	for time.Since(start) < microBudget {
		for i, w := range ws {
			tensor.MatMulP(outs[i], as[i], w, workers)
		}
		passes++
	}
	end = time.Now()
	tr.add(trace, "", "tensor.MatMulP", start, end)
	out["tensor.matmul_gflops"] = float64(passes) * matmulRows * flopsPerPass / end.Sub(start).Seconds() / 1e9
}

// armMicro measures faults.Arm followed by Disarm of memory-fault sites,
// each on a fresh copy-on-write clone as a campaign worker holds one, so
// the time includes privatizing the struck weight. It returns the mean
// microseconds per pair; the clone itself is not timed.
func armMicro(m *model.Model, fm faults.Model, tr *tracer) (float64, error) {
	sampler, err := faults.NewSampler(m, nil)
	if err != nil {
		return 0, err
	}
	src := prng.New(0x61726d)
	sites := make([]faults.Site, 256)
	for i := range sites {
		sites[i] = sampler.Sample(src.Split(uint64(i)), fm, 1)
	}
	trace := tr.newTrace()
	start := time.Now()
	var busy time.Duration
	n := 0
	for time.Since(start) < microBudget {
		wm := m.CloneShared()
		t0 := time.Now()
		inj, err := faults.Arm(wm, sites[n%len(sites)], 0)
		if err != nil {
			return 0, err
		}
		inj.Disarm()
		busy += time.Since(t0)
		n++
	}
	tr.add(trace, "", "faults.Arm", start, time.Now())
	return float64(busy.Nanoseconds()) / 1e3 / float64(n), nil
}
