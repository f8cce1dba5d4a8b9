//go:build amd64 && !purego

#include "textflag.h"

// func fillUint16AVX2(dst *uint16, n int, v uint16)
TEXT ·fillUint16AVX2(SB), NOSPLIT, $0-18
	MOVQ    dst+0(FP), DI
	MOVQ    n+8(FP), CX
	MOVWLZX v+16(FP), AX
	VMOVD   AX, X0
	VPBROADCASTW X0, Y0

fill16x32:
	CMPQ    CX, $32
	JLT     fill16x16
	VMOVDQU Y0, (DI)
	VMOVDQU Y0, 32(DI)
	ADDQ    $64, DI
	SUBQ    $32, CX
	JMP     fill16x32

fill16x16:
	CMPQ    CX, $16
	JLT     fill16tail
	VMOVDQU Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $16, CX

fill16tail:
	TESTQ CX, CX
	JZ    fill16done
	MOVW  AX, (DI)
	ADDQ  $2, DI
	DECQ  CX
	JMP   fill16tail

fill16done:
	VZEROUPPER
	RET

// func fillBytesAVX2(dst *byte, n int, v byte)
TEXT ·fillBytesAVX2(SB), NOSPLIT, $0-17
	MOVQ    dst+0(FP), DI
	MOVQ    n+8(FP), CX
	MOVBLZX v+16(FP), AX
	VMOVD   AX, X0
	VPBROADCASTB X0, Y0

fill8x64:
	CMPQ    CX, $64
	JLT     fill8x32
	VMOVDQU Y0, (DI)
	VMOVDQU Y0, 32(DI)
	ADDQ    $64, DI
	SUBQ    $64, CX
	JMP     fill8x64

fill8x32:
	CMPQ    CX, $32
	JLT     fill8tail
	VMOVDQU Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $32, CX

fill8tail:
	TESTQ CX, CX
	JZ    fill8done
	MOVB  AX, (DI)
	INCQ  DI
	DECQ  CX
	JMP   fill8tail

fill8done:
	VZEROUPPER
	RET

// func histMergeAVX2(h *int32, t *int32)
//
// h[v] += t[v] + t[256+v] + t[512+v] + t[768+v] for v in [0,256):
// 32 column-add iterations of 8 lanes each, all loads unaligned.
TEXT ·histMergeAVX2(SB), NOSPLIT, $0-16
	MOVQ h+0(FP), DI
	MOVQ t+8(FP), SI
	MOVQ $32, CX

histmerge:
	VMOVDQU (SI), Y0
	VPADDD  1024(SI), Y0, Y0
	VPADDD  2048(SI), Y0, Y0
	VPADDD  3072(SI), Y0, Y0
	VPADDD  (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     histmerge
	VZEROUPPER
	RET

// Byte-group lane transposes, 32 float32 values (128 bytes) per step.
// Every vector instruction below works within 128-bit halves except
// VPERMD, VPERMQ and VPERM2I128, which move data across them.

// Per 16-byte half: bytes {0,4,8,12 | 1,5,9,13 | 2,6,10,14 | 3,7,11,15},
// i.e. byte k of four values gathered into dword k.
DATA split4shuf<>+0(SB)/8, $0x0d0905010c080400
DATA split4shuf<>+8(SB)/8, $0x0f0b07030e0a0602
DATA split4shuf<>+16(SB)/8, $0x0d0905010c080400
DATA split4shuf<>+24(SB)/8, $0x0f0b07030e0a0602
GLOBL split4shuf<>(SB), RODATA|NOPTR, $32

// Dword order [0,4,1,5,2,6,3,7]: qword k then holds byte k of 8 values.
DATA split4perm<>+0(SB)/8, $0x0000000400000000
DATA split4perm<>+8(SB)/8, $0x0000000500000001
DATA split4perm<>+16(SB)/8, $0x0000000600000002
DATA split4perm<>+24(SB)/8, $0x0000000700000003
GLOBL split4perm<>(SB), RODATA|NOPTR, $32

// func splitLanes4AVX2(dst *byte, stride int, src *float32, n int)
TEXT ·splitLanes4AVX2(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    stride+8(FP), DX
	MOVQ    src+16(FP), SI
	MOVQ    n+24(FP), CX
	LEAQ    (DI)(DX*1), R8
	LEAQ    (R8)(DX*1), R9
	LEAQ    (R9)(DX*1), R10
	VMOVDQU split4shuf<>(SB), Y6
	VMOVDQU split4perm<>(SB), Y7
	SHRQ    $5, CX
	JZ      split4done

split4loop:
	VMOVDQU     (SI), Y0        // values 0-7
	VMOVDQU     32(SI), Y1      // values 8-15
	VMOVDQU     64(SI), Y2      // values 16-23
	VMOVDQU     96(SI), Y3      // values 24-31
	VPSHUFB     Y6, Y0, Y0
	VPSHUFB     Y6, Y1, Y1
	VPSHUFB     Y6, Y2, Y2
	VPSHUFB     Y6, Y3, Y3
	VPERMD      Y0, Y7, Y0      // qword k = byte k of values 0-7
	VPERMD      Y1, Y7, Y1
	VPERMD      Y2, Y7, Y2
	VPERMD      Y3, Y7, Y3
	VPUNPCKLQDQ Y1, Y0, Y4      // [byte 0 | byte 2] of values 0-15
	VPUNPCKHQDQ Y1, Y0, Y5      // [byte 1 | byte 3] of values 0-15
	VPUNPCKLQDQ Y3, Y2, Y0      // [byte 0 | byte 2] of values 16-31
	VPUNPCKHQDQ Y3, Y2, Y1      // [byte 1 | byte 3] of values 16-31
	VPERM2I128  $0x20, Y0, Y4, Y2
	VPERM2I128  $0x20, Y1, Y5, Y3
	VPERM2I128  $0x31, Y0, Y4, Y0
	VPERM2I128  $0x31, Y1, Y5, Y1
	VMOVDQU     Y2, (DI)
	VMOVDQU     Y3, (R8)
	VMOVDQU     Y0, (R9)
	VMOVDQU     Y1, (R10)
	ADDQ        $128, SI
	ADDQ        $32, DI
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	DECQ        CX
	JNZ         split4loop

split4done:
	VZEROUPPER
	RET

// func joinLanes4AVX2(dst *float32, src *byte, stride int, n int)
TEXT ·joinLanes4AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ n+24(FP), CX
	LEAQ (SI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	SHRQ $5, CX
	JZ   join4done

join4loop:
	VMOVDQU    (SI), Y0         // byte 0 of values 0-31
	VMOVDQU    (R8), Y1         // byte 1
	VMOVDQU    (R9), Y2         // byte 2
	VMOVDQU    (R10), Y3        // byte 3
	VPUNPCKLBW Y1, Y0, Y4       // bytes 0-1 of values [0-7 | 16-23]
	VPUNPCKHBW Y1, Y0, Y5       // bytes 0-1 of values [8-15 | 24-31]
	VPUNPCKLBW Y3, Y2, Y0       // bytes 2-3 of values [0-7 | 16-23]
	VPUNPCKHBW Y3, Y2, Y1       // bytes 2-3 of values [8-15 | 24-31]
	VPUNPCKLWD Y0, Y4, Y2       // values [0-3 | 16-19]
	VPUNPCKHWD Y0, Y4, Y3       // values [4-7 | 20-23]
	VPUNPCKLWD Y1, Y5, Y0       // values [8-11 | 24-27]
	VPUNPCKHWD Y1, Y5, Y4       // values [12-15 | 28-31]
	VPERM2I128 $0x20, Y3, Y2, Y1
	VPERM2I128 $0x20, Y4, Y0, Y5
	VPERM2I128 $0x31, Y3, Y2, Y2
	VPERM2I128 $0x31, Y4, Y0, Y3
	VMOVDQU    Y1, (DI)
	VMOVDQU    Y5, 32(DI)
	VMOVDQU    Y2, 64(DI)
	VMOVDQU    Y3, 96(DI)
	ADDQ       $32, SI
	ADDQ       $32, R8
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $128, DI
	DECQ       CX
	JNZ        join4loop

join4done:
	VZEROUPPER
	RET
