//go:build amd64 && !purego

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

// The shared pieces of the four kernels. A BLOCK is four rows, whose
// coordinate bases are in R9, R12, R13 and Q3 (a register the kernel names);
// DI holds p's base, CX len(p) and R10 the coordinate index.
//
// ZERO4 clears the four accumulators Y0..Y3.
#define ZERO4 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	XORQ   R10, R10

// DIM4 adds coordinates [R10, R10+4) of the four rows to Y0..Y3: one p load
// serves the four rows, and each accumulator's lanes are exactly the
// (s0, s1, s2, s3) of the canonical SquaredEuclidean order for its row.
#define DIM4(Q3) \
	VMOVUPD (DI)(R10*8), Y4;  \
	VSUBPD  (R9)(R10*8), Y4, Y5; \
	VSUBPD  (R12)(R10*8), Y4, Y6; \
	VSUBPD  (R13)(R10*8), Y4, Y7; \
	VSUBPD  (Q3)(R10*8), Y4, Y8; \
	VMULPD  Y5, Y5, Y5; \
	VMULPD  Y6, Y6, Y6; \
	VMULPD  Y7, Y7, Y7; \
	VMULPD  Y8, Y8, Y8; \
	VADDPD  Y5, Y0, Y0; \
	VADDPD  Y6, Y1, Y1; \
	VADDPD  Y7, Y2, Y2; \
	VADDPD  Y8, Y3, Y3; \
	ADDQ    $4, R10

// REDUCE4 transposes and sums the four accumulators at once, leaving in lane
// r of Y6 the sum of row r, (s0+s1)+(s2+s3):
//
//	Y4 = hadd(Y0, Y1) = (a0+a1, b0+b1, a2+a3, b2+b3)
//	Y5 = hadd(Y2, Y3) = (c0+c1, d0+d1, c2+c3, d2+d3)
//	Y6 = low halves   = (a0+a1, b0+b1, c0+c1, d0+d1)
//	Y7 = high halves  = (a2+a3, b2+b3, c2+c3, d2+d3)
//	Y6 = Y6 + Y7
//
// Every sum is one IEEE addition of the same two operands as the scalar
// combine (addition is commutative bit for bit), so nothing is reassociated.
#define REDUCE4 \
	VHADDPD    Y1, Y0, Y4; \
	VHADDPD    Y3, Y2, Y5; \
	VPERM2F128 $0x20, Y5, Y4, Y6; \
	VPERM2F128 $0x31, Y5, Y4, Y7; \
	VADDPD     Y7, Y6, Y6

// ROW1 is the one-row tail: the squared distance from p to the row at R9 in
// the low lane of X0, combined in the same (s0+s1)+(s2+s3) order.
#define ROW1(loop) \
	VXORPD Y0, Y0, Y0; \
	XORQ   R10, R10; \
loop: \
	VMOVUPD (DI)(R10*8), Y4; \
	VSUBPD  (R9)(R10*8), Y4, Y5; \
	VMULPD  Y5, Y5, Y5; \
	VADDPD  Y5, Y0, Y0; \
	ADDQ    $4, R10; \
	CMPQ    R10, CX; \
	JLT     loop; \
	VEXTRACTF128 $1, Y0, X1; \
	VPERMILPD    $1, X0, X2; \
	VADDSD       X2, X0, X0; \
	VPERMILPD    $1, X1, X3; \
	VADDSD       X3, X1, X1; \
	VADDSD       X1, X0, X0

// func argNearestEucAVX(p Point, set []Point) (float64, int)
//
// The strict minimum of SquaredEuclidean(p, set[i]) with the lowest index
// attaining it, (+Inf, -1) when no row is below +Inf. A block whose four sums
// are none below the running best (one VCMPPD against the best in all four
// lanes) is passed over; one that can win is resolved row by row in index
// order with the scalar loop's strict comparison, so ties, NaNs and +Inf rows
// go exactly where the scalar loop sends them. Requires len(p) % 4 == 0,
// len(p) > 0, len(set) > 0; every set element must have at least len(p)
// coordinates.
//
// Register use:
//	DI  p base          CX  len(p)
//	SI  current set header (advances by 24 per row)
//	DX  len(set)        R8  current row index i
//	R9, R12, R13, BX    the block's four row bases (R9 alone in the tail)
//	R10 coordinate index      R11 best index     AX scratch
//	Y0-Y3 accumulators  Y4-Y9 scratch
//	Y10 best in all four lanes (X10: the scalar best while resolving)
// The best value also lives in the return slot, which VBROADCASTSD reads
// (its register form is AVX2).
TEXT ·argNearestEucAVX(SB), NOSPLIT, $0-64
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ set_base+24(FP), SI
	MOVQ set_len+32(FP), DX

	// best = +Inf, bestIdx = -1
	MOVQ         $0x7FF0000000000000, AX
	MOVQ         AX, ret+48(FP)
	VBROADCASTSD ret+48(FP), Y10
	MOVQ         $-1, R11
	XORQ         R8, R8

	// Pin the loops to a cache-line start: left to the 32-byte function
	// alignment an inner loop straddled two lines in every other build, which
	// moved single-point ArgNearest (the streaming Observe kernel) by 4-8 %
	// whenever unrelated code changed size.
	PCALIGN $64
blockloop:
	LEAQ 4(R8), AX
	CMPQ AX, DX
	JGT  tail
	MOVQ (SI), R9
	MOVQ 24(SI), R12
	MOVQ 48(SI), R13
	MOVQ 72(SI), BX
	ZERO4

blockdim:
	DIM4(BX)
	CMPQ R10, CX
	JLT  blockdim

	REDUCE4
	VCMPPD    $0x11, Y10, Y6, Y7 // lane r: row r < best (ordered, quiet)
	VMOVMSKPD Y7, AX
	TESTL     AX, AX
	JNZ       resolve

nextblock:
	ADDQ $96, SI
	ADDQ $4, R8
	JMP  blockloop

	// if s < best { best = s; bestIdx = i }, rows in index order
	// (VUCOMISD sets "below or same" for best <= s and for NaN: keep).
resolve:
	VUCOMISD X6, X10
	JLS      lane1
	VMOVAPD  X6, X10
	MOVQ     R8, R11
lane1:
	VPERMILPD $1, X6, X7
	VUCOMISD  X7, X10
	JLS       lane2
	VMOVAPD   X7, X10
	LEAQ      1(R8), R11
lane2:
	VEXTRACTF128 $1, Y6, X8
	VUCOMISD     X8, X10
	JLS          lane3
	VMOVAPD      X8, X10
	LEAQ         2(R8), R11
lane3:
	VPERMILPD $1, X8, X9
	VUCOMISD  X9, X10
	JLS       resolved
	VMOVAPD   X9, X10
	LEAQ      3(R8), R11
resolved:
	VMOVSD       X10, ret+48(FP)
	VBROADCASTSD ret+48(FP), Y10
	JMP          nextblock

	PCALIGN $64
tail:
	CMPQ R8, DX
	JGE  done
	MOVQ (SI), R9
	ROW1(taildim)
	VUCOMISD X0, X10
	JLS      tailnext
	VMOVAPD  X0, X10
	MOVQ     R8, R11
tailnext:
	ADDQ $24, SI
	INCQ R8
	JMP  tail

done:
	VMOVSD X10, ret+48(FP)
	MOVQ   R11, ret1+56(FP)
	VZEROUPPER
	RET

// func distancesToEucAVX(p Point, set []Point, dst []float64)
//
// dst[i] = SquaredEuclidean(p, set[i]), four rows per pass with the same
// lane semantics as argNearestEucAVX. Requires len(p) % 4 == 0, len(p) > 0,
// and len(dst) >= len(set).
//
// Register use as in argNearestEucAVX, with R11 the fourth row base and BX
// dst's base.
TEXT ·distancesToEucAVX(SB), NOSPLIT, $0-72
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ set_base+24(FP), SI
	MOVQ set_len+32(FP), DX
	MOVQ dst_base+48(FP), BX
	XORQ R8, R8

	PCALIGN $64               // as in argNearestEucAVX
dblockloop:
	LEAQ 4(R8), AX
	CMPQ AX, DX
	JGT  dtail
	MOVQ (SI), R9
	MOVQ 24(SI), R12
	MOVQ 48(SI), R13
	MOVQ 72(SI), R11
	ZERO4

dblockdim:
	DIM4(R11)
	CMPQ R10, CX
	JLT  dblockdim

	REDUCE4
	VMOVUPD Y6, (BX)(R8*8)
	ADDQ    $96, SI
	ADDQ    $4, R8
	JMP     dblockloop

	PCALIGN $64
dtail:
	CMPQ R8, DX
	JGE  ddone
	MOVQ (SI), R9
	ROW1(dtaildim)
	VMOVSD X0, (BX)(R8*8)
	ADDQ   $24, SI
	INCQ   R8
	JMP    dtail

ddone:
	VZEROUPPER
	RET

// func distancesToIdxEucAVX(p Point, points []Point, idx []int32, dst []float64) int
//
// dst[i] = SquaredEuclidean(p, points[idx[i]]), four rows per pass as in
// distancesToEucAVX, the rows found through idx. It returns the number of
// entries written: every index is checked against len(points) (unsigned, so
// negative ones fail too) before its block is read, and the kernel stops at
// the first block or tail row holding one out of range, for the caller to
// finish in Go. Requires len(p) % 4 == 0, len(p) > 0, and
// len(dst) >= len(idx).
//
// Register use as in distancesToEucAVX, with SI points' base, DX len(idx),
// and AX, in turn, idx's base, len(points) and scratch.
TEXT ·distancesToIdxEucAVX(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ points_base+24(FP), SI
	MOVQ idx_len+56(FP), DX
	MOVQ dst_base+72(FP), BX
	XORQ R8, R8

	PCALIGN $64               // as in argNearestEucAVX
iblockloop:
	LEAQ   4(R8), AX
	CMPQ   AX, DX
	JGT    itail
	MOVQ   idx_base+48(FP), AX
	MOVLQSX (AX)(R8*4), R9
	MOVLQSX 4(AX)(R8*4), R12
	MOVLQSX 8(AX)(R8*4), R13
	MOVLQSX 12(AX)(R8*4), R11
	MOVQ   points_len+32(FP), AX
	CMPQ   R9, AX
	JAE    iout
	CMPQ   R12, AX
	JAE    iout
	CMPQ   R13, AX
	JAE    iout
	CMPQ   R11, AX
	JAE    iout
	LEAQ   (R9)(R9*2), R9      // header offset: 24*index
	MOVQ   (SI)(R9*8), R9
	LEAQ   (R12)(R12*2), R12
	MOVQ   (SI)(R12*8), R12
	LEAQ   (R13)(R13*2), R13
	MOVQ   (SI)(R13*8), R13
	LEAQ   (R11)(R11*2), R11
	MOVQ   (SI)(R11*8), R11
	ZERO4

iblockdim:
	DIM4(R11)
	CMPQ R10, CX
	JLT  iblockdim

	REDUCE4
	VMOVUPD Y6, (BX)(R8*8)
	ADDQ    $4, R8
	JMP     iblockloop

	PCALIGN $64
itail:
	CMPQ    R8, DX
	JGE     iout
	MOVQ    idx_base+48(FP), AX
	MOVLQSX (AX)(R8*4), R9
	CMPQ    R9, points_len+32(FP)
	JAE     iout
	LEAQ    (R9)(R9*2), R9
	MOVQ    (SI)(R9*8), R9
	ROW1(itaildim)
	VMOVSD  X0, (BX)(R8*8)
	INCQ    R8
	JMP     itail

iout:
	MOVQ R8, ret+96(FP)
	VZEROUPPER
	RET

// func updateNearestEucAVX(c Point, block []Point, minDist []float64, minIdx []int, newIdx int) float64
//
// The GMM cache update over the whole blocks of four rows of the set (the
// caller merges the len % 4 tail rows): the sums of distancesToEucAVX, then,
// in registers, minDist[i], minIdx[i] = s, newIdx wherever s < minDist[i]
// (ordered, quiet: a NaN sum never wins, a tie keeps the entry and its index)
// and a running maximum of the merged caches, returned (-Inf for no block).
// Every block is stored back, blended, without a branch: skipping the stores
// of a block no sum wins measured about 12 % slower on GMM rounds over 2 500
// and 7 500 points, the branch mispredicting while captures are common.
// Requires len(c) % 4 == 0, len(c) > 0, and len(minDist), len(minIdx) >=
// len(block).
//
// Register use as in distancesToEucAVX, with DX the number of rows in whole
// blocks, BX minDist's base and AX minIdx's base; Y9 newIdx in all four
// lanes, Y10 the lane-wise running max, Y11-Y13 the block's caches, indices
// and win mask.
TEXT ·updateNearestEucAVX(SB), NOSPLIT, $0-112
	MOVQ         c_base+0(FP), DI
	MOVQ         c_len+8(FP), CX
	MOVQ         block_base+24(FP), SI
	MOVQ         block_len+32(FP), DX
	ANDQ         $-4, DX
	MOVQ         minDist_base+48(FP), BX
	MOVQ         minIdx_base+72(FP), AX
	VBROADCASTSD newIdx+96(FP), Y9

	// max = -Inf in all four lanes, broadcast from the return slot
	MOVQ         $0xFFF0000000000000, R8
	MOVQ         R8, ret+104(FP)
	VBROADCASTSD ret+104(FP), Y10
	XORQ         R8, R8

	PCALIGN $64               // as in argNearestEucAVX
ublockloop:
	CMPQ R8, DX
	JGE  udone
	MOVQ (SI), R9
	MOVQ 24(SI), R12
	MOVQ 48(SI), R13
	MOVQ 72(SI), R11
	ZERO4

ublockdim:
	DIM4(R11)
	CMPQ R10, CX
	JLT  ublockdim

	REDUCE4
	VMOVUPD   (BX)(R8*8), Y11
	VCMPPD    $0x11, Y11, Y6, Y13 // lane r: s < minDist (ordered, quiet)
	VMOVUPD   (AX)(R8*8), Y12
	VBLENDVPD Y13, Y6, Y11, Y11 // minDist = s where s won
	VBLENDVPD Y13, Y9, Y12, Y12 // minIdx = newIdx where s won
	VMOVUPD   Y11, (BX)(R8*8)
	VMOVUPD   Y12, (AX)(R8*8)

	// max = minDist > max ? minDist : max, lane by lane: VMAXPD returns its
	// second source whenever the comparison fails, as the scalar keeps m.
	VMAXPD Y10, Y11, Y10
	ADDQ   $96, SI
	ADDQ   $4, R8
	JMP    ublockloop

udone:
	VEXTRACTF128 $1, Y10, X11
	VMAXPD       X11, X10, X10
	VPERMILPD    $1, X10, X11
	VMAXSD       X11, X10, X10
	VMOVSD       X10, ret+104(FP)
	VZEROUPPER
	RET
