package tensor

// useAVX2 selects the assembly GEMV kernel. It is fixed at start-up from
// what the CPU and the OS support; nothing else selects a kernel.
var useAVX2 = hasAVX2()

// matVecAVX2 computes out = x · wd for len(out) columns, a multiple of
// 8, with rows stride elements apart. It checks no bounds: MatVecStrided
// does, before the call.
//
//go:noescape
func matVecAVX2(out, x, wd []float32, stride int)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
