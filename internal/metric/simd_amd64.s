//go:build amd64

#include "textflag.h"

// func x86HasAVX() bool
//
// CPUID.(EAX=1):ECX must report OSXSAVE (bit 27) and AVX (bit 28), and
// XGETBV(0) must report that the OS saves both XMM (bit 1) and YMM (bit 2)
// state.
TEXT ·x86HasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, BX
	ANDL $0x18000000, BX      // OSXSAVE | AVX
	CMPL BX, $0x18000000
	JNE  novx
	XORL CX, CX
	XGETBV
	ANDL $6, AX               // XMM | YMM state enabled
	CMPL AX, $6
	JNE  novx
	MOVB $1, ret+0(FP)
	RET
novx:
	MOVB $0, ret+0(FP)
	RET

// func argNearestEucAVX(p Point, set []Point) (float64, int)
//
// For each q in set, accumulates the squared distance in one YMM register
// whose four lanes are exactly the (s0, s1, s2, s3) of the canonical
// SquaredEuclidean order, combines as (s0+s1)+(s2+s3), and keeps the strict
// minimum with the lowest index. Requires len(p) % 4 == 0, len(p) > 0,
// len(set) > 0; every set element must have at least len(p) coordinates.
//
// Register use:
//	DI  p base          CX  len(p)
//	SI  current set header (advances by 24 per element)
//	DX  len(set)        R8  current index i
//	R9  q base          R10 coordinate index j
//	R11 best index      X5  best value
//	Y0  accumulator     Y1/Y2 scratch
TEXT ·argNearestEucAVX(SB), NOSPLIT, $0-64
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ set_base+24(FP), SI
	MOVQ set_len+32(FP), DX

	// best = +Inf, bestIdx = -1
	MOVQ  $0x7FF0000000000000, AX
	VMOVQ AX, X5
	MOVQ  $-1, R11
	XORQ  R8, R8

	// Pin the row loop to a cache-line start: the 33-byte dimloop then sits
	// inside one 64-byte line wherever the linker puts the function. Left to
	// the 32-byte function alignment it straddled two lines in every other
	// build, which moved single-point ArgNearest (the streaming Observe
	// kernel) by 4-8 % whenever unrelated code changed size.
	PCALIGN $64
rowloop:
	CMPQ R8, DX
	JGE  rowdone
	MOVQ (SI), R9             // q base pointer from the slice header

	VXORPD Y0, Y0, Y0
	XORQ   R10, R10

dimloop:
	VMOVUPD (DI)(R10*8), Y1
	VMOVUPD (R9)(R10*8), Y2
	VSUBPD  Y2, Y1, Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, R10
	CMPQ    R10, CX
	JLT     dimloop

	// s = (s0 + s1) + (s2 + s3)
	VEXTRACTF128 $1, Y0, X1   // X1 = (s2, s3)
	VPERMILPD    $1, X0, X2   // X2 = (s1, s0)
	VADDSD       X2, X0, X0   // X0 = s0 + s1
	VPERMILPD    $1, X1, X3   // X3 = (s3, s2)
	VADDSD       X3, X1, X1   // X1 = s2 + s3
	VADDSD       X1, X0, X0   // X0 = (s0+s1) + (s2+s3)

	// if s < best { best = s; bestIdx = i }  (NaN-safe: unordered skips)
	VUCOMISD X0, X5           // flags: best ? s
	JLS      next             // not (best > s, ordered) -> keep current
	VMOVAPD  X0, X5
	MOVQ     R8, R11

next:
	ADDQ $24, SI
	INCQ R8
	JMP  rowloop

rowdone:
	VMOVSD X5, ret+48(FP)
	MOVQ   R11, ret1+56(FP)
	VZEROUPPER
	RET

// func distancesToEucAVX(p Point, set []Point, dst []float64)
//
// dst[i] = SquaredEuclidean(p, set[i]) with the same canonical lane
// semantics as argNearestEucAVX. Requires len(p) % 4 == 0, len(p) > 0, and
// len(dst) >= len(set).
TEXT ·distancesToEucAVX(SB), NOSPLIT, $0-72
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ set_base+24(FP), SI
	MOVQ set_len+32(FP), DX
	MOVQ dst_base+48(FP), BX

	XORQ R8, R8

	PCALIGN $64               // as in argNearestEucAVX
drowloop:
	CMPQ R8, DX
	JGE  drowdone
	MOVQ (SI), R9

	VXORPD Y0, Y0, Y0
	XORQ   R10, R10

ddimloop:
	VMOVUPD (DI)(R10*8), Y1
	VMOVUPD (R9)(R10*8), Y2
	VSUBPD  Y2, Y1, Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, R10
	CMPQ    R10, CX
	JLT     ddimloop

	VEXTRACTF128 $1, Y0, X1
	VPERMILPD    $1, X0, X2
	VADDSD       X2, X0, X0
	VPERMILPD    $1, X1, X3
	VADDSD       X3, X1, X1
	VADDSD       X1, X0, X0

	VMOVSD X0, (BX)(R8*8)

	ADDQ $24, SI
	INCQ R8
	JMP  drowloop

drowdone:
	VZEROUPPER
	RET
