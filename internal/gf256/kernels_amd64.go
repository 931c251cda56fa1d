//go:build amd64

package gf256

// asmEnabled selects the AVX2 PSHUFB kernels and gfniEnabled the GFNI row
// kernel when the CPU and OS support them. They are variables (not
// build-time constants) so tests can force the lower tiers.
var (
	asmEnabled  = detectAVX2()
	gfniEnabled = detectGFNI()
)

// cpuid executes the CPUID instruction. Implemented in kernels_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. Implemented in kernels_amd64.s.
func xgetbv() (eax, edx uint32)

// detectAVX2 reports whether the CPU supports AVX2 and the OS saves YMM
// state across context switches (OSXSAVE + XCR0 bits 1 and 2).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return b7&avx2Bit != 0
}

// detectGFNI reports whether the CPU supports GFNI and AVX-512F and the OS
// saves the opmask and ZMM state (XCR0 bits 5-7) on top of AVX2's.
func detectGFNI() bool {
	if !detectAVX2() {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0xe0 != 0xe0 {
		return false
	}
	_, b7, c7, _ := cpuid(7, 0)
	return b7&(1<<16) != 0 && c7&(1<<8) != 0 // AVX-512F, GFNI
}

// mulRowGFNI computes dst[i] = sum_j row[j]*srcs[j][off+i] for n bytes (n a
// positive multiple of 64, k = len(row) > 0), or adds the sum to dst when
// assign is false. Implemented in kernels_amd64.s.
//
//go:noescape
func mulRowGFNI(matrices *[Order]uint64, row *byte, srcs *[]byte, k, off int, dst *byte, n int, assign bool)

// mulRowAsm runs the GFNI row kernel over the largest 64-byte multiple
// prefix of dst and returns how many bytes it handled.
func mulRowAsm(row []byte, srcs [][]byte, off int, dst []byte, assign bool) int {
	n := len(dst) &^ 63
	if n > 0 {
		mulRowGFNI(&gfniMatrix, &row[0], &srcs[0], len(row), off, &dst[0], n, assign)
	}
	return n
}

// mulAddVecAVX2 computes dst[i] ^= c*src[i] for n bytes (n a multiple of
// 32, n > 0) using the nibble tables. Implemented in kernels_amd64.s.
func mulAddVecAVX2(low, high *[16]byte, src, dst *byte, n int)

// mulAssignVecAVX2 computes dst[i] = c*src[i] likewise.
func mulAssignVecAVX2(low, high *[16]byte, src, dst *byte, n int)

// mulAddAsm runs the AVX2 accumulate kernel over the largest 32-byte
// multiple prefix and returns how many bytes it handled.
func mulAddAsm(c byte, src, dst []byte) int {
	n := len(src) &^ 31
	if n > 0 {
		mulAddVecAVX2(&mulTableLow[c], &mulTableHigh[c], &src[0], &dst[0], n)
	}
	return n
}

// mulAssignAsm runs the AVX2 assign kernel over the largest 32-byte
// multiple prefix and returns how many bytes it handled.
func mulAssignAsm(c byte, src, dst []byte) int {
	n := len(src) &^ 31
	if n > 0 {
		mulAssignVecAVX2(&mulTableLow[c], &mulTableHigh[c], &src[0], &dst[0], n)
	}
	return n
}
