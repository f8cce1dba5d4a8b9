//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the separable block transform in kernel.go. Each
// routine performs, per output lane, exactly the scalar arithmetic of
// the portable Go path — same operand order, same +0 accumulator seed,
// same ascending summation index, multiply-then-add with no FMA
// contraction — so results are bit-identical to the portable
// implementation, which remains the test oracle.
//
// x86 two-NaN operations return the first source's payload, so every
// multiply takes the plane value as its first source (src1, the middle
// Go operand) and the coefficient second, and every add keeps the
// operand order the compiled portable loop has: the accumulator first
// in the row passes, the product first in the column passes.
//
// Every kernel loads each plane value once and reads its coefficients
// from the Kernel's broadcast tables (kernel.go: NewKernel), so no
// working tile is spilled to the stack.

// TRANSPOSE8: transpose the 8x8 float32 matrix whose rows are Y0..Y7
// into Y8..Y15 (Y8+j = column j, lane i = row i). Clobbers Y0..Y15.
#define TRANSPOSE8 \
	VUNPCKLPS  Y1, Y0, Y8   \ // [a00 a10 a01 a11 | a04 a14 a05 a15]
	VUNPCKHPS  Y1, Y0, Y9   \
	VUNPCKLPS  Y3, Y2, Y10  \
	VUNPCKHPS  Y3, Y2, Y11  \
	VUNPCKLPS  Y5, Y4, Y12  \
	VUNPCKHPS  Y5, Y4, Y13  \
	VUNPCKLPS  Y7, Y6, Y14  \
	VUNPCKHPS  Y7, Y6, Y15  \
	VSHUFPS    $0x44, Y10, Y8, Y0  \ // [a00 a10 a20 a30 | a04 a14 a24 a34]
	VSHUFPS    $0xEE, Y10, Y8, Y1  \
	VSHUFPS    $0x44, Y11, Y9, Y2  \
	VSHUFPS    $0xEE, Y11, Y9, Y3  \
	VSHUFPS    $0x44, Y14, Y12, Y4 \
	VSHUFPS    $0xEE, Y14, Y12, Y5 \
	VSHUFPS    $0x44, Y15, Y13, Y6 \
	VSHUFPS    $0xEE, Y15, Y13, Y7 \
	VPERM2F128 $0x20, Y4, Y0, Y8   \ // column 0
	VPERM2F128 $0x20, Y5, Y1, Y9   \
	VPERM2F128 $0x20, Y6, Y2, Y10  \
	VPERM2F128 $0x20, Y7, Y3, Y11  \
	VPERM2F128 $0x31, Y4, Y0, Y12  \
	VPERM2F128 $0x31, Y5, Y1, Y13  \
	VPERM2F128 $0x31, Y6, Y2, Y14  \
	VPERM2F128 $0x31, Y7, Y3, Y15

// FWDACC(c, acc): acc = sum_{p<8} T_p * tab[c*8+p], from +0 in
// ascending p, with the transposed columns T_p in Y8..Y15 and Y7 as the
// product register (c < 7).
#define FWDACC(c, acc) \
	VXORPS acc, acc, acc                 \
	VMULPS (c*256+0)(R10), Y8, Y7        \
	VADDPS Y7, acc, acc                  \
	VMULPS (c*256+32)(R10), Y9, Y7       \
	VADDPS Y7, acc, acc                  \
	VMULPS (c*256+64)(R10), Y10, Y7      \
	VADDPS Y7, acc, acc                  \
	VMULPS (c*256+96)(R10), Y11, Y7      \
	VADDPS Y7, acc, acc                  \
	VMULPS (c*256+128)(R10), Y12, Y7     \
	VADDPS Y7, acc, acc                  \
	VMULPS (c*256+160)(R10), Y13, Y7     \
	VADDPS Y7, acc, acc                  \
	VMULPS (c*256+192)(R10), Y14, Y7     \
	VADDPS Y7, acc, acc                  \
	VMULPS (c*256+224)(R10), Y15, Y7     \
	VADDPS Y7, acc, acc

// TRANSPOSE4X2(r0, r1, r2, r3, t0, t1, t2, t3, c0, c1, c2, c3): transpose
// the 4x4 float32 block in each 128-bit half of r0..r3 into c0..c3
// (c_j lane i = r_i lane j, per half), through t0..t3. The three sets
// of registers must be distinct.
#define TRANSPOSE4X2(r0, r1, r2, r3, t0, t1, t2, t3, c0, c1, c2, c3) \
	VUNPCKLPS r1, r0, t0           \
	VUNPCKHPS r1, r0, t1           \
	VUNPCKLPS r3, r2, t2           \
	VUNPCKHPS r3, r2, t3           \
	VSHUFPS   $0x44, t2, t0, c0    \
	VSHUFPS   $0xEE, t2, t0, c1    \
	VSHUFPS   $0x44, t3, t1, c2    \
	VSHUFPS   $0xEE, t3, t1, c3

// func fwdBand8AVX2(dst *float32, dstStride int, src *float32, srcStride int, nblks, cf int, tab *float32, mask *int32)
//
// For 8 consecutive rows r and every block blk:
//
//	dst[r*dstStride + blk*cf + c] = sum_{p<8} src[r*srcStride + blk*8 + p] * F[c,p]
//
// accumulated from +0 in ascending p order, with tab the Kernel's
// forward broadcast table (entry c*8+p holds F[c,p] in all 8 lanes).
// The 8x8 tile is transposed so each source column p is one register
// (lane = row): rows r and r+4 are loaded into the two 128-bit halves of
// one register, so two in-lane 4x4 transposes finish the job with no
// cross-lane shuffle. The cf outputs accumulate in Y0..Ycf-1 and are
// transposed back: for cf <= 4 one in-lane 4x4 transpose leaves row r in
// the low half of a register and row r+4 in its high half; for cf > 4
// the full 8x8 transpose runs. The first cf lanes of each row are stored
// (under mask, laneMask[cf], unless cf is 4 or 8).
TEXT ·fwdBand8AVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), DX
	MOVQ nblks+32(FP), CX
	MOVQ cf+40(FP), R9
	MOVQ tab+48(FP), R10
	MOVQ mask+56(FP), R11
	SHLQ $2, DX               // src row stride in bytes
	SHLQ $2, R8               // dst row stride in bytes
	LEAQ (DX)(DX*2), AX       // 3*srcStride
	LEAQ (DX)(DX*4), BX       // 5*srcStride
	LEAQ (AX)(DX*4), R12      // 7*srcStride
	LEAQ (R8)(R8*2), R13      // 3*dstStride
	LEAQ (R8)(R8*4), R14      // 5*dstStride
	LEAQ (R13)(R8*4), R15     // 7*dstStride

fwdblock:
	// Y_r = [row r | row r+4] of columns 0-3, Y4+r the same of 4-7.
	VMOVUPS     (SI), X0
	VINSERTF128 $1, (SI)(DX*4), Y0, Y0
	VMOVUPS     (SI)(DX*1), X1
	VINSERTF128 $1, (SI)(BX*1), Y1, Y1
	VMOVUPS     (SI)(DX*2), X2
	VINSERTF128 $1, (SI)(AX*2), Y2, Y2
	VMOVUPS     (SI)(AX*1), X3
	VINSERTF128 $1, (SI)(R12*1), Y3, Y3
	VMOVUPS     16(SI), X4
	VINSERTF128 $1, 16(SI)(DX*4), Y4, Y4
	VMOVUPS     16(SI)(DX*1), X5
	VINSERTF128 $1, 16(SI)(BX*1), Y5, Y5
	VMOVUPS     16(SI)(DX*2), X6
	VINSERTF128 $1, 16(SI)(AX*2), Y6, Y6
	VMOVUPS     16(SI)(AX*1), X7
	VINSERTF128 $1, 16(SI)(R12*1), Y7, Y7
	TRANSPOSE4X2(Y0, Y1, Y2, Y3, Y12, Y13, Y14, Y15, Y8, Y9, Y10, Y11)
	TRANSPOSE4X2(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3, Y12, Y13, Y14, Y15)

	// Output c accumulates in Yc (lane = row). Lanes of the registers
	// past cf hold stale values and are never stored.
	FWDACC(0, Y0)
	CMPQ R9, $1
	JEQ  fwdback4
	FWDACC(1, Y1)
	CMPQ R9, $2
	JEQ  fwdback4
	FWDACC(2, Y2)
	CMPQ R9, $3
	JEQ  fwdback4
	FWDACC(3, Y3)
	CMPQ R9, $4
	JEQ  fwdback4
	FWDACC(4, Y4)
	CMPQ R9, $5
	JEQ  fwdback8
	FWDACC(5, Y5)
	CMPQ R9, $6
	JEQ  fwdback8
	FWDACC(6, Y6)
	CMPQ R9, $7
	JEQ  fwdback8

	// c = 7: every column's last use, so each product overwrites it.
	VXORPS Y7, Y7, Y7
	VMULPS (7*256+0)(R10), Y8, Y8
	VADDPS Y8, Y7, Y7
	VMULPS (7*256+32)(R10), Y9, Y9
	VADDPS Y9, Y7, Y7
	VMULPS (7*256+64)(R10), Y10, Y10
	VADDPS Y10, Y7, Y7
	VMULPS (7*256+96)(R10), Y11, Y11
	VADDPS Y11, Y7, Y7
	VMULPS (7*256+128)(R10), Y12, Y12
	VADDPS Y12, Y7, Y7
	VMULPS (7*256+160)(R10), Y13, Y13
	VADDPS Y13, Y7, Y7
	VMULPS (7*256+192)(R10), Y14, Y14
	VADDPS Y14, Y7, Y7
	VMULPS (7*256+224)(R10), Y15, Y15
	VADDPS Y15, Y7, Y7

fwdback8:
	// cf > 4: transpose the whole accumulator tile back to row-major.
	TRANSPOSE8
	CMPQ       R9, $8
	JEQ        fwdfull8
	VMOVUPS    (R11), Y0      // lane mask (first cf lanes set)
	VMASKMOVPS Y8, Y0, (DI)
	VMASKMOVPS Y9, Y0, (DI)(R8*1)
	VMASKMOVPS Y10, Y0, (DI)(R8*2)
	VMASKMOVPS Y11, Y0, (DI)(R13*1)
	VMASKMOVPS Y12, Y0, (DI)(R8*4)
	VMASKMOVPS Y13, Y0, (DI)(R14*1)
	VMASKMOVPS Y14, Y0, (DI)(R13*2)
	VMASKMOVPS Y15, Y0, (DI)(R15*1)
	JMP        fwdnext

fwdfull8:
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(R8*1)
	VMOVUPS Y10, (DI)(R8*2)
	VMOVUPS Y11, (DI)(R13*1)
	VMOVUPS Y12, (DI)(R8*4)
	VMOVUPS Y13, (DI)(R14*1)
	VMOVUPS Y14, (DI)(R13*2)
	VMOVUPS Y15, (DI)(R15*1)
	JMP     fwdnext

fwdback4:
	// cf <= 4: Y8+r = [row r | row r+4], outputs 0-3 of each.
	TRANSPOSE4X2(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	CMPQ        R9, $4
	JEQ         fwdfull4
	VMOVUPS     (R11), X0     // lane mask (first cf lanes set)
	VEXTRACTF128 $1, Y8, X4
	VEXTRACTF128 $1, Y9, X5
	VEXTRACTF128 $1, Y10, X6
	VEXTRACTF128 $1, Y11, X7
	VMASKMOVPS  X8, X0, (DI)
	VMASKMOVPS  X9, X0, (DI)(R8*1)
	VMASKMOVPS  X10, X0, (DI)(R8*2)
	VMASKMOVPS  X11, X0, (DI)(R13*1)
	VMASKMOVPS  X4, X0, (DI)(R8*4)
	VMASKMOVPS  X5, X0, (DI)(R14*1)
	VMASKMOVPS  X6, X0, (DI)(R13*2)
	VMASKMOVPS  X7, X0, (DI)(R15*1)
	JMP         fwdnext

fwdfull4:
	VMOVUPS      X8, (DI)
	VMOVUPS      X9, (DI)(R8*1)
	VMOVUPS      X10, (DI)(R8*2)
	VMOVUPS      X11, (DI)(R13*1)
	VEXTRACTF128 $1, Y8, (DI)(R8*4)
	VEXTRACTF128 $1, Y9, (DI)(R14*1)
	VEXTRACTF128 $1, Y10, (DI)(R13*2)
	VEXTRACTF128 $1, Y11, (DI)(R15*1)

fwdnext:
	ADDQ $32, SI              // next 8-column source block
	LEAQ (DI)(R9*4), DI       // next cf-column dst block
	DECQ CX
	JNZ  fwdblock
	VZEROUPPER
	RET

// func invRowsAVX2(dst *float32, dstStride int, src *float32, srcStride int, rows, nblks, cf int, cols *float32)
//
// For every row r < rows and block blk:
//
//	dst[r*dstStride + blk*8 + q] = sum_{c<cf} src[r*srcStride + blk*cf + c] * G[q,c]
//
// accumulated from +0 in ascending c order, vectorized across the
// block's 8 outputs q: each source value is broadcast and multiplied by
// the G column cols[c*8 : c*8+8], held in Y8+c for the whole call.
TEXT ·invRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), DX
	MOVQ rows+32(FP), CX
	MOVQ nblks+40(FP), R11
	MOVQ cf+48(FP), R9
	MOVQ cols+56(FP), R10
	SHLQ $2, DX
	SHLQ $2, R8
	LEAQ (R9*4), R12          // source bytes per block
	VMOVUPS (R10), Y8
	VMOVUPS 32(R10), Y9
	VMOVUPS 64(R10), Y10
	VMOVUPS 96(R10), Y11
	VMOVUPS 128(R10), Y12
	VMOVUPS 160(R10), Y13
	VMOVUPS 192(R10), Y14
	VMOVUPS 224(R10), Y15

invrow:
	MOVQ SI, R13              // source block cursor
	MOVQ DI, R14              // dst block cursor
	MOVQ R11, R15             // block counter

invblock:
	VXORPS       Y0, Y0, Y0
	VBROADCASTSS (R13), Y1
	VMULPS       Y8, Y1, Y1
	VADDPS       Y1, Y0, Y0
	CMPQ         R9, $1
	JEQ          invstore
	VBROADCASTSS 4(R13), Y2
	VMULPS       Y9, Y2, Y2
	VADDPS       Y2, Y0, Y0
	CMPQ         R9, $2
	JEQ          invstore
	VBROADCASTSS 8(R13), Y3
	VMULPS       Y10, Y3, Y3
	VADDPS       Y3, Y0, Y0
	CMPQ         R9, $3
	JEQ          invstore
	VBROADCASTSS 12(R13), Y4
	VMULPS       Y11, Y4, Y4
	VADDPS       Y4, Y0, Y0
	CMPQ         R9, $4
	JEQ          invstore
	VBROADCASTSS 16(R13), Y5
	VMULPS       Y12, Y5, Y5
	VADDPS       Y5, Y0, Y0
	CMPQ         R9, $5
	JEQ          invstore
	VBROADCASTSS 20(R13), Y6
	VMULPS       Y13, Y6, Y6
	VADDPS       Y6, Y0, Y0
	CMPQ         R9, $6
	JEQ          invstore
	VBROADCASTSS 24(R13), Y7
	VMULPS       Y14, Y7, Y7
	VADDPS       Y7, Y0, Y0
	CMPQ         R9, $7
	JEQ          invstore
	VBROADCASTSS 28(R13), Y1
	VMULPS       Y15, Y1, Y1
	VADDPS       Y1, Y0, Y0

invstore:
	VMOVUPS Y0, (R14)
	ADDQ    R12, R13
	ADDQ    $32, R14
	DECQ    R15
	JNZ     invblock
	ADDQ    DX, SI
	ADDQ    R8, DI
	DECQ    CX
	JNZ     invrow
	VZEROUPPER
	RET

// Column passes. Both kernels take one block row of a plane and its
// coefficient table tab and mask table mask (kernel.go: NewKernel):
// entry o*8+i holds the coefficient joining input i to output o in all
// 8 lanes, and its mask entry is all ones unless that coefficient is
// ±0. Each product is ANDed with its mask, so a zero coefficient adds
// +0 — bit-for-bit the portable loop's skip, because the accumulator
// starts at +0 and never becomes −0, and x + (+0) is x for every other
// float, ±Inf and NaN included. The b inputs or outputs per block are 8
// or 4 (b is passed for the branch). Columns run in 8-wide strips; a
// final strip of cols%8 columns loads and stores under tail
// (laneMask[cols%8]).

// FCOL(skip): Y0 = sum_{p<b} (S_p * tab[R15+p]) & mask[R15+p], from +0
// in ascending p, with the source rows S_p in Y8..Y15.
#define FCOL(skip) \
	VXORPS Y0, Y0, Y0                      \
	VMULPS (R10)(R15*1), Y8, Y1            \
	VANDPS (R11)(R15*1), Y1, Y1            \
	VADDPS Y0, Y1, Y0                      \
	VMULPS 32(R10)(R15*1), Y9, Y1          \
	VANDPS 32(R11)(R15*1), Y1, Y1          \
	VADDPS Y0, Y1, Y0                      \
	VMULPS 64(R10)(R15*1), Y10, Y1         \
	VANDPS 64(R11)(R15*1), Y1, Y1          \
	VADDPS Y0, Y1, Y0                      \
	VMULPS 96(R10)(R15*1), Y11, Y1         \
	VANDPS 96(R11)(R15*1), Y1, Y1          \
	VADDPS Y0, Y1, Y0                      \
	CMPQ   R12, $4                         \
	JEQ    skip                            \
	VMULPS 128(R10)(R15*1), Y12, Y1        \
	VANDPS 128(R11)(R15*1), Y1, Y1         \
	VADDPS Y0, Y1, Y0                      \
	VMULPS 160(R10)(R15*1), Y13, Y1        \
	VANDPS 160(R11)(R15*1), Y1, Y1         \
	VADDPS Y0, Y1, Y0                      \
	VMULPS 192(R10)(R15*1), Y14, Y1        \
	VANDPS 192(R11)(R15*1), Y1, Y1         \
	VADDPS Y0, Y1, Y0                      \
	VMULPS 224(R10)(R15*1), Y15, Y1        \
	VANDPS 224(R11)(R15*1), Y1, Y1         \
	VADDPS Y0, Y1, Y0                      \
skip:

// func fwdColAVX2(dst *float32, dstStride int, src *float32, srcStride int, cols, b, cf int, tab *float32, mask *int32, tail *int32)
//
// One block row of the forward column pass: for r < cf and j < cols,
//
//	dst[r*dstStride + j] = sum over p<b with F[r,p] != 0 of F[r,p] * src[p*srcStride + j]
//
// The strip's b source rows stay in Y8..Y15 while the cf outputs are
// emitted one after another, in ascending r.
TEXT ·fwdColAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), DX
	MOVQ cols+32(FP), CX
	MOVQ b+40(FP), R12
	MOVQ cf+48(FP), R9
	MOVQ tab+56(FP), R10
	MOVQ mask+64(FP), R11
	SHLQ $2, DX
	SHLQ $2, R8
	SHLQ $8, R9               // table bytes for cf outputs
	LEAQ (DX)(DX*2), AX       // 3*srcStride
	LEAQ (DX)(DX*4), BX       // 5*srcStride
	LEAQ (AX)(DX*4), R13      // 7*srcStride

fcstrip:
	CMPQ    CX, $8
	JLT     fctail
	VMOVUPS (SI), Y8
	VMOVUPS (SI)(DX*1), Y9
	VMOVUPS (SI)(DX*2), Y10
	VMOVUPS (SI)(AX*1), Y11
	CMPQ    R12, $4
	JEQ     fcrows
	VMOVUPS (SI)(DX*4), Y12
	VMOVUPS (SI)(BX*1), Y13
	VMOVUPS (SI)(AX*2), Y14
	VMOVUPS (SI)(R13*1), Y15

fcrows:
	MOVQ DI, R14              // output row cursor
	XORQ R15, R15             // table offset of output r

fcout:
	FCOL(fcout4)
	VMOVUPS Y0, (R14)
	ADDQ    R8, R14
	ADDQ    $256, R15
	CMPQ    R15, R9
	JNE     fcout
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     fcstrip

fctail:
	TESTQ      CX, CX
	JZ         fcdone
	MOVQ       tail+72(FP), R14
	VMOVUPS    (R14), Y7
	VMASKMOVPS (SI), Y7, Y8
	VMASKMOVPS (SI)(DX*1), Y7, Y9
	VMASKMOVPS (SI)(DX*2), Y7, Y10
	VMASKMOVPS (SI)(AX*1), Y7, Y11
	CMPQ       R12, $4
	JEQ        fctrows
	VMASKMOVPS (SI)(DX*4), Y7, Y12
	VMASKMOVPS (SI)(BX*1), Y7, Y13
	VMASKMOVPS (SI)(AX*2), Y7, Y14
	VMASKMOVPS (SI)(R13*1), Y7, Y15

fctrows:
	MOVQ DI, R14
	XORQ R15, R15

fctout:
	FCOL(fctout4)
	VMASKMOVPS Y0, Y7, (R14)
	ADDQ       R8, R14
	ADDQ       $256, R15
	CMPQ       R15, R9
	JNE        fctout

fcdone:
	VZEROUPPER
	RET

// ICOL(skip): acc_q += (S * tab[R15+q]) & mask[R15+q] for q < b, with
// the source row S in Y8 and acc_q in Yq.
#define ICOL(skip) \
	VMULPS (R10)(R15*1), Y8, Y9            \
	VANDPS (R11)(R15*1), Y9, Y9            \
	VADDPS Y0, Y9, Y0                      \
	VMULPS 32(R10)(R15*1), Y8, Y10         \
	VANDPS 32(R11)(R15*1), Y10, Y10        \
	VADDPS Y1, Y10, Y1                     \
	VMULPS 64(R10)(R15*1), Y8, Y11         \
	VANDPS 64(R11)(R15*1), Y11, Y11        \
	VADDPS Y2, Y11, Y2                     \
	VMULPS 96(R10)(R15*1), Y8, Y12         \
	VANDPS 96(R11)(R15*1), Y12, Y12        \
	VADDPS Y3, Y12, Y3                     \
	CMPQ   R12, $4                         \
	JEQ    skip                            \
	VMULPS 128(R10)(R15*1), Y8, Y13        \
	VANDPS 128(R11)(R15*1), Y13, Y13       \
	VADDPS Y4, Y13, Y4                     \
	VMULPS 160(R10)(R15*1), Y8, Y14        \
	VANDPS 160(R11)(R15*1), Y14, Y14       \
	VADDPS Y5, Y14, Y5                     \
	VMULPS 192(R10)(R15*1), Y8, Y9         \
	VANDPS 192(R11)(R15*1), Y9, Y9         \
	VADDPS Y6, Y9, Y6                      \
	VMULPS 224(R10)(R15*1), Y8, Y10        \
	VANDPS 224(R11)(R15*1), Y10, Y10       \
	VADDPS Y7, Y10, Y7                     \
skip:

// ICZERO clears the eight accumulators.
#define ICZERO \
	VXORPS Y0, Y0, Y0 \
	VXORPS Y1, Y1, Y1 \
	VXORPS Y2, Y2, Y2 \
	VXORPS Y3, Y3, Y3 \
	VXORPS Y4, Y4, Y4 \
	VXORPS Y5, Y5, Y5 \
	VXORPS Y6, Y6, Y6 \
	VXORPS Y7, Y7, Y7

// func invColAVX2(dst *float32, dstStride int, src *float32, srcStride int, cols, b, cf int, tab *float32, mask *int32, tail *int32)
//
// One block row of the inverse column pass: for q < b and j < cols,
//
//	dst[q*dstStride + j] = sum over c<cf with G[q,c] != 0 of G[q,c] * src[c*srcStride + j]
//
// The strip's b accumulators stay in Y0..Y7 while the cf source rows
// stream through them, in ascending c.
TEXT ·invColAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), DX
	MOVQ cols+32(FP), CX
	MOVQ b+40(FP), R12
	MOVQ cf+48(FP), R9
	MOVQ tab+56(FP), R10
	MOVQ mask+64(FP), R11
	SHLQ $2, DX
	SHLQ $2, R8
	SHLQ $8, R9               // table bytes for cf source rows
	LEAQ (R8)(R8*2), AX       // 3*dstStride
	LEAQ (R8)(R8*4), BX       // 5*dstStride
	LEAQ (AX)(R8*4), R13      // 7*dstStride

icstrip:
	CMPQ CX, $8
	JLT  ictail
	ICZERO
	MOVQ SI, R14              // source row cursor
	XORQ R15, R15             // table offset of source row c

icsrc:
	VMOVUPS (R14), Y8
	ICOL(icsrc4)
	ADDQ    DX, R14
	ADDQ    $256, R15
	CMPQ    R15, R9
	JNE     icsrc
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R8*1)
	VMOVUPS Y2, (DI)(R8*2)
	VMOVUPS Y3, (DI)(AX*1)
	CMPQ    R12, $4
	JEQ     icnext
	VMOVUPS Y4, (DI)(R8*4)
	VMOVUPS Y5, (DI)(BX*1)
	VMOVUPS Y6, (DI)(AX*2)
	VMOVUPS Y7, (DI)(R13*1)

icnext:
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  icstrip

ictail:
	TESTQ   CX, CX
	JZ      icdone
	MOVQ    tail+72(FP), R14
	VMOVUPS (R14), Y15
	ICZERO
	MOVQ    SI, R14
	XORQ    R15, R15

ictsrc:
	VMASKMOVPS (R14), Y15, Y8
	ICOL(ictsrc4)
	ADDQ       DX, R14
	ADDQ       $256, R15
	CMPQ       R15, R9
	JNE        ictsrc
	VMASKMOVPS Y0, Y15, (DI)
	VMASKMOVPS Y1, Y15, (DI)(R8*1)
	VMASKMOVPS Y2, Y15, (DI)(R8*2)
	VMASKMOVPS Y3, Y15, (DI)(AX*1)
	CMPQ       R12, $4
	JEQ        icdone
	VMASKMOVPS Y4, Y15, (DI)(R8*4)
	VMASKMOVPS Y5, Y15, (DI)(BX*1)
	VMASKMOVPS Y6, Y15, (DI)(AX*2)
	VMASKMOVPS Y7, Y15, (DI)(R13*1)

icdone:
	VZEROUPPER
	RET
