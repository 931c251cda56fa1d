//go:build amd64

#include "textflag.h"

// 0x0f in every byte lane, for extracting nibbles.
DATA nibbleMask<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $16

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulAddVecAVX2(low, high *[16]byte, src, dst *byte, n int)
//
// dst[i] ^= c*src[i] for i in [0, n), n a positive multiple of 32.
// Each 32-byte vector is split into low/high nibbles; VPSHUFB indexes the
// broadcast 16-entry product tables with the nibbles, giving 32 GF(2^8)
// products per pair of shuffles.
TEXT ·mulAddVecAVX2(SB), NOSPLIT, $0-40
	MOVQ           low+0(FP), AX
	MOVQ           high+8(FP), BX
	MOVQ           src+16(FP), SI
	MOVQ           dst+24(FP), DI
	MOVQ           n+32(FP), CX
	VBROADCASTI128 (AX), Y0               // low-nibble products in both lanes
	VBROADCASTI128 (BX), Y1               // high-nibble products
	VBROADCASTI128 nibbleMask<>(SB), Y2
	CMPQ           CX, $64
	JL             add32

add64:
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y8
	VPSRLQ  $4, Y3, Y4
	VPSRLQ  $4, Y8, Y9
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y8, Y8
	VPAND   Y2, Y4, Y4
	VPAND   Y2, Y9, Y9
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y8, Y0, Y10
	VPSHUFB Y4, Y1, Y6
	VPSHUFB Y9, Y1, Y11
	VPXOR   Y5, Y6, Y5
	VPXOR   Y10, Y11, Y10
	VPXOR   (DI), Y5, Y5
	VPXOR   32(DI), Y10, Y10
	VMOVDQU Y5, (DI)
	VMOVDQU Y10, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JGE     add64

	TESTQ CX, CX
	JZ    adddone

add32:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPXOR   Y5, Y6, Y5
	VPXOR   (DI), Y5, Y5
	VMOVDQU Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     add32

adddone:
	VZEROUPPER
	RET

// func mulAssignVecAVX2(low, high *[16]byte, src, dst *byte, n int)
//
// dst[i] = c*src[i] for i in [0, n), n a positive multiple of 32.
TEXT ·mulAssignVecAVX2(SB), NOSPLIT, $0-40
	MOVQ           low+0(FP), AX
	MOVQ           high+8(FP), BX
	MOVQ           src+16(FP), SI
	MOVQ           dst+24(FP), DI
	MOVQ           n+32(FP), CX
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 (BX), Y1
	VBROADCASTI128 nibbleMask<>(SB), Y2

assign32:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y5
	VPSHUFB Y4, Y1, Y6
	VPXOR   Y5, Y6, Y5
	VMOVDQU Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     assign32

	VZEROUPPER
	RET

// func mulRowGFNI(matrices *[256]uint64, row *byte, srcs *[]byte, k, off int, dst *byte, n int, assign bool)
//
// dst[i] = sum_j row[j]*srcs[j][off+i] for i in [0, n), n a positive multiple
// of 64 and k > 0; with assign false the sum is added to dst instead. Each
// output vector is built in registers from all k sources and stored once:
// per source one VGF2P8AFFINEQB with coefficient row[j]'s bit matrix,
// broadcast to every lane, and one XOR. 128 bytes per pass while they last,
// so each matrix and source pointer is loaded once for two vectors.
TEXT ·mulRowGFNI(SB), NOSPLIT, $0-57
	MOVQ    matrices+0(FP), AX
	MOVQ    row+8(FP), BX
	MOVQ    srcs+16(FP), SI
	MOVQ    k+24(FP), CX
	MOVQ    off+32(FP), DX
	MOVQ    dst+40(FP), DI
	MOVQ    n+48(FP), R8
	MOVBLZX assign+56(FP), R9

loop128:
	CMPQ      R8, $128
	JB        tail64
	VPXORQ    Z0, Z0, Z0
	VPXORQ    Z1, Z1, Z1
	TESTQ     R9, R9
	JNZ       start128
	VMOVDQU64 (DI), Z0
	VMOVDQU64 64(DI), Z1

start128:
	MOVQ BX, R10 // &row[j]
	MOVQ SI, R11 // &srcs[j]
	MOVQ CX, R12 // sources left

src128:
	MOVBQZX        (R10), R13
	VPBROADCASTQ   (AX)(R13*8), Z2
	MOVQ           (R11), R14
	VMOVDQU64      (R14)(DX*1), Z3
	VMOVDQU64      64(R14)(DX*1), Z4
	VGF2P8AFFINEQB $0, Z2, Z3, Z3
	VGF2P8AFFINEQB $0, Z2, Z4, Z4
	VPXORQ         Z3, Z0, Z0
	VPXORQ         Z4, Z1, Z1
	INCQ           R10
	ADDQ           $24, R11
	DECQ           R12
	JNZ            src128

	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ      $128, DI
	ADDQ      $128, DX
	SUBQ      $128, R8
	JMP       loop128

tail64:
	TESTQ     R8, R8
	JZ        rowdone
	VPXORQ    Z0, Z0, Z0
	TESTQ     R9, R9
	JNZ       start64
	VMOVDQU64 (DI), Z0

start64:
	MOVQ BX, R10
	MOVQ SI, R11
	MOVQ CX, R12

src64:
	MOVBQZX        (R10), R13
	VPBROADCASTQ   (AX)(R13*8), Z2
	MOVQ           (R11), R14
	VMOVDQU64      (R14)(DX*1), Z3
	VGF2P8AFFINEQB $0, Z2, Z3, Z3
	VPXORQ         Z3, Z0, Z0
	INCQ           R10
	ADDQ           $24, R11
	DECQ           R12
	JNZ            src64

	VMOVDQU64 Z0, (DI)

rowdone:
	VZEROUPPER
	RET
