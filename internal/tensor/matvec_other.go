//go:build !amd64

package tensor

// useAVX2 is false off amd64: matVecGeneric computes every column.
const useAVX2 = false

func matVecAVX2(out, x, wd []float32, stride int) {
	panic("tensor: no AVX2 kernel on this architecture")
}
