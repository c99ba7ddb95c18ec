#include "textflag.h"

// func matVecAVX2(out, x, wd []float32, stride int)
//
// len(out) is a multiple of 8. Columns go in blocks of 32, then 16, then
// 8; each YMM lane is one output column and runs the scalar sequence of
// matVecGeneric: p ascending, x[p] == ±0 skipped (NaN is not), VMULPS
// then VADDPS into an accumulator that starts at +0, so every result is
// bit-identical and every NaN result is NaN. The weight is the first
// multiply operand and the accumulator the first add operand, the order
// the compiled Go loop mostly uses; which payload survives when two NaNs
// meet is not part of the contract (DESIGN.md). FMA is never used: it
// rounds once where the scalar code rounds twice.
TEXT ·matVecAVX2(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	MOVQ wd_base+48(FP), DX
	MOVQ stride+72(FP), R9
	SHLQ $2, R9

block32:
	CMPQ CX, $32
	JLT  block16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12
	TESTQ R12, R12
	JEQ  store32

loop32:
	MOVL (R10), AX
	SHLL $1, AX // drops the sign bit: zero exactly when x[p] is ±0
	JEQ  skip32
	VBROADCASTSS (R10), Y8
	VMOVUPS (R11), Y4
	VMOVUPS 32(R11), Y5
	VMOVUPS 64(R11), Y6
	VMOVUPS 96(R11), Y7
	VMULPS Y8, Y4, Y4
	VMULPS Y8, Y5, Y5
	VMULPS Y8, Y6, Y6
	VMULPS Y8, Y7, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

skip32:
	ADDQ $4, R10
	ADDQ R9, R11
	DECQ R12
	JNE  loop32

store32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  block32

block16:
	CMPQ CX, $16
	JLT  block8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12
	TESTQ R12, R12
	JEQ  store16

loop16:
	MOVL (R10), AX
	SHLL $1, AX
	JEQ  skip16
	VBROADCASTSS (R10), Y8
	VMOVUPS (R11), Y4
	VMOVUPS 32(R11), Y5
	VMULPS Y8, Y4, Y4
	VMULPS Y8, Y5, Y5
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1

skip16:
	ADDQ $4, R10
	ADDQ R9, R11
	DECQ R12
	JNE  loop16

store16:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $16, CX

block8:
	CMPQ CX, $8
	JLT  done
	VXORPS Y0, Y0, Y0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12
	TESTQ R12, R12
	JEQ  store8

loop8:
	MOVL (R10), AX
	SHLL $1, AX
	JEQ  skip8
	VBROADCASTSS (R10), Y8
	VMOVUPS (R11), Y4
	VMULPS Y8, Y4, Y4
	VADDPS Y4, Y0, Y0

skip8:
	ADDQ $4, R10
	ADDQ R9, R11
	DECQ R12
	JNE  loop8

store8:
	VMOVUPS Y0, (DI)

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
