package tensor

import (
	"runtime"
	"sync"
)

// minRowsPerWorker keeps tiny matmuls single-threaded; spawning goroutines
// for a 1×64 · 64×64 product costs more than the product.
const minRowsPerWorker = 32

// MatMul computes out = a · b with up to GOMAXPROCS worker goroutines.
// Callers that must bound their CPU share (campaign workers splitting the
// machine) use MatMulP with an explicit worker count instead; there is no
// package-global parallelism knob.
func MatMul(out, a, b *Tensor) {
	MatMulP(out, a, b, runtime.GOMAXPROCS(0))
}

// MatMulP computes out = a · b where a is m×k and b is k×n, using at most
// workers goroutines (values < 1 mean serial). out must be m×n and
// distinct from a and b. Work is split across rows of a when the product
// is large enough, so the per-row arithmetic — and therefore the result —
// is bit-identical for every worker count.
//
// The kernel iterates k in the middle loop with b accessed row-wise so the
// inner loop is a contiguous saxpy — the standard cache-friendly ikj
// ordering. Accumulation is in float32, matching GPU tensor-core GEMM
// behaviour closely enough for this study (fault magnitudes dwarf
// accumulation-order noise).
func MatMulP(out, a, b *Tensor, workers int) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: MatMul shape mismatch")
	}
	if workers > 1 && a.Rows >= minRowsPerWorker*2 {
		parallelRows(a.Rows, workers, func(r0, r1 int) {
			matmulRowsBlocked(out, a, b, r0, r1)
		})
		return
	}
	matmulRowsBlocked(out, a, b, 0, a.Rows)
}

// MatMulRows computes the first rows rows of out = a · b, leaving the
// remaining rows of out untouched. This is the batched-decode GEMM entry
// point: a continuous-batching scheduler keeps activation tensors sized
// for its batch capacity and stacks however many trials are currently in
// flight into the leading rows. Each output row's accumulation sequence
// is bit-identical to MatVec on that row (p ascending with zero inputs
// skipped, then the contiguous saxpy in x ascending order), so one
// rows×k matmul per layer per step replaces rows GEMVs without changing
// a single bit of any trial's result — for every worker count.
func MatMulRows(out, a, b *Tensor, rows, workers int) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: MatMulRows shape mismatch")
	}
	if rows < 0 || rows > a.Rows {
		panic("tensor: MatMulRows row count out of range")
	}
	if workers > 1 && rows >= minRowsPerWorker*2 {
		parallelRows(rows, workers, func(r0, r1 int) {
			matmulRowsBlocked(out, a, b, r0, r1)
		})
		return
	}
	matmulRowsBlocked(out, a, b, 0, rows)
}

// matmulRowsBlocked computes rows [r0, r1) of out = a·b with one row
// kernel call per row, so every row is bit-identical to MatVec by
// construction. A cross-row kernel could share each loaded weight
// vector between rows, but every row skips its own set of ±0 inputs, so
// it would have to replace the skip branch with a per-row mask; that
// variant has not been built or measured. Rows remain the parallel
// split axis for multi-worker calls.
func matmulRowsBlocked(out, a, b *Tensor, r0, r1 int) {
	n := b.Cols
	k := a.Cols
	for i := r0; i < r1; i++ {
		MatVecStrided(out.Data[i*n:(i+1)*n], a.Data[i*k:(i+1)*k], b.Data, n)
	}
}

// matmulRows computes rows [r0, r1) of out = a·b.
func matmulRows(out, a, b *Tensor, r0, r1 int) {
	n := b.Cols
	k := a.Cols
	for i := r0; i < r1; i++ {
		orow := out.Data[i*n : (i+1)*n]
		for x := range orow {
			orow[x] = 0
		}
		arow := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for x, bv := range brow {
				orow[x] += av * bv
			}
		}
	}
}

// MatMulT computes out = a · bᵀ where a is m×k and b is n×k, so out is
// m×n. This is the natural layout for attention scores (Q·Kᵀ) and lets
// both operands stream row-wise.
func MatMulT(out, a, b *Tensor) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: MatMulT shape mismatch")
	}
	k := a.Cols
	n := b.Rows
	body := func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b.Data[j*k : (j+1)*k]
				var sum float32
				for p, av := range arow {
					sum += av * brow[p]
				}
				orow[j] = sum
			}
		}
	}
	if workers := runtime.GOMAXPROCS(0); workers > 1 && a.Rows >= minRowsPerWorker*2 {
		parallelRows(a.Rows, workers, body)
		return
	}
	body(0, a.Rows)
}

// MatMulAT computes out = aᵀ · b where a is t×m and b is t×n, so out is
// m×n. This is the dW = Xᵀ·dY shape of linear-layer backprop.
func MatMulAT(out, a, b *Tensor) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: MatMulAT shape mismatch")
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	m, n := a.Cols, b.Cols
	for t := 0; t < a.Rows; t++ {
		arow := a.Data[t*m : (t+1)*m]
		brow := b.Data[t*n : (t+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// AddMatMulAT computes out += aᵀ · b, accumulating into out (gradient
// accumulation across a batch).
func AddMatMulAT(out, a, b *Tensor) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: AddMatMulAT shape mismatch")
	}
	m, n := a.Cols, b.Cols
	for t := 0; t < a.Rows; t++ {
		arow := a.Data[t*m : (t+1)*m]
		brow := b.Data[t*n : (t+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// parallelRows splits [0, rows) into contiguous chunks and runs body on
// each chunk in its own goroutine, waiting for all to finish.
func parallelRows(rows, workers int, body func(r0, r1 int)) {
	if workers > rows {
		workers = rows
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for r0 := 0; r0 < rows; r0 += chunk {
		r1 := r0 + chunk
		if r1 > rows {
			r1 = rows
		}
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			body(r0, r1)
		}(r0, r1)
	}
	wg.Wait()
}

// MatVec computes out = x · w where x is a 1×k row vector and w is k×n.
// It is the hot path of single-token decoding. Each out element's
// accumulation sequence (p ascending, ±0 inputs skipped, float32
// multiply then add from a +0 start) is that of the reference saxpy
// kernel — the contract every batched and blocked GEMM in this package
// is pinned to.
func MatVec(out []float32, x []float32, w *Tensor) {
	if len(x) != w.Rows || len(out) != w.Cols {
		panic("tensor: MatVec shape mismatch")
	}
	MatVecStrided(out, x, w.Data, w.Cols)
}

// MatVecStrided computes out[j] = Σ_p x[p]·wd[p·stride+j] for every
// j < len(out): MatVec over the leading len(out) columns of a matrix
// whose rows are stride elements apart. It is the row kernel behind
// every GEMV and GEMM entry point, and attention's value mix is this
// GEMV over one head's slice of the cached V rows. The SIMD kernel,
// where the CPU has one, computes the columns up to the last multiple
// of 8 and matVecGeneric the rest. It panics unless stride ≥ len(out)
// and wd holds every element the sum reads: the assembly checks no
// bounds itself.
func MatVecStrided(out, x, wd []float32, stride int) {
	n := len(out)
	if stride < n || len(x) > 0 && len(wd) < (len(x)-1)*stride+n {
		panic("tensor: GEMV operand shorter than its shape")
	}
	if n8 := n &^ 7; useAVX2 && n8 > 0 && len(x) > 0 {
		matVecAVX2(out[:n8], x, wd, stride)
		out, wd = out[n8:], wd[n8:]
	}
	matVecGeneric(out, x, wd, stride)
}

// matVecGeneric is the portable kernel and the reference the SIMD kernel
// is tested against. It tiles eight output columns into register
// accumulators per pass over x; each column still sees the scalar
// sequence, so the tiling is bit-identical to the saxpy form.
func matVecGeneric(out, x, wd []float32, stride int) {
	n := len(out)
	i := 0
	for ; i+8 <= n; i += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		off := i
		for _, xv := range x {
			if xv != 0 {
				wr := wd[off : off+8 : off+8]
				s0 += xv * wr[0]
				s1 += xv * wr[1]
				s2 += xv * wr[2]
				s3 += xv * wr[3]
				s4 += xv * wr[4]
				s5 += xv * wr[5]
				s6 += xv * wr[6]
				s7 += xv * wr[7]
			}
			off += stride
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
		out[i+4], out[i+5], out[i+6], out[i+7] = s4, s5, s6, s7
	}
	for ; i < n; i++ {
		var s float32
		off := i
		for _, xv := range x {
			if xv != 0 {
				s += xv * wd[off]
			}
			off += stride
		}
		out[i] = s
	}
}
